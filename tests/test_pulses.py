import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from fluxmod import (
    BichromaticPulse,
    OutOfBand,
    TransferFunction,
    ValidationError,
    apply_transfer_compensation,
    compensate_pulse,
    distort_pulse,
    scale_tones,
    wrap_angle,
)
from fluxmod.calibration import reference_transfer_function


def test_flux_formula_by_hand():
    pulse = BichromaticPulse(
        fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=0.3, theta_rad=0.7, p=3,
        phi_dc_phi0=0.1,
    )
    t = 2.4
    w = 2 * math.pi * 0.1  # rad/ns
    expected = 0.1 + 0.5 * (
        math.cos(0.3) * math.cos(w * t) + math.sin(0.3) * math.cos(3 * w * t + 0.7)
    )
    assert pulse.flux(t) == pytest.approx(expected, abs=1e-15)


def test_pulse_validation():
    with pytest.raises(ValidationError):
        BichromaticPulse(fm_mhz=0.0, phi_ac_phi0=0.5)
    with pytest.raises(ValidationError):
        BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=-0.1)
    with pytest.raises(ValidationError):
        BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=2.0)
    with pytest.raises(ValidationError):
        BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.5, p=0)


def test_peak_flux_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pulse = BichromaticPulse(
            fm_mhz=float(rng.uniform(20, 70)),
            phi_ac_phi0=float(rng.uniform(0, 0.8)),
            alpha_rad=float(rng.uniform(0, math.pi / 2)),
            theta_rad=float(rng.uniform(-math.pi, math.pi)),
            p=int(rng.choice([1, 3, 5])),
            phi_dc_phi0=float(rng.uniform(-0.3, 0.3)),
        )
        # 200 ns at 4 GS/s
        flux = pulse.flux(np.arange(801) / 4.0)
        # tones can add coherently, so the plain amplitude sum is the bound
        bound = (
            abs(pulse.phi_dc_phi0)
            + pulse.amp_fundamental_phi0
            + pulse.amp_multiple_phi0
        )
        assert np.max(np.abs(flux)) <= bound + 1e-12


class TestPhaseAlgebra:
    def test_wrap(self):
        assert wrap_angle(math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(3 * math.pi + 0.1) == pytest.approx(-math.pi + 0.1)

    def test_p1_invariant(self):
        # a common phase offset moves both tones alike when p = 1
        tf = reference_transfer_function()
        rng = np.random.default_rng(3)
        for _ in range(50):
            th = float(rng.uniform(-math.pi, math.pi))
            pulse = BichromaticPulse(
                fm_mhz=80.0, phi_ac_phi0=0.4, alpha_rad=0.5, theta_rad=th, p=1
            )
            theta0 = float(rng.uniform(-10, 10))
            shifted = distort_pulse(pulse, tf, theta0)
            assert wrap_angle(shifted.theta_rad - th) == pytest.approx(0.0, abs=1e-12)

    def test_ambiguity_modulus(self):
        # the offset moves theta by (1 - p) theta0, so offsets differing by
        # 2 pi / (p - 1) are indistinguishable, which is why
        # calibrate_theta0 reports theta0 only modulo that
        tf = reference_transfer_function()
        rng = np.random.default_rng(5)
        for p in [3, 5, 7] * 20:
            pulse = BichromaticPulse(
                fm_mhz=float(rng.uniform(10, 40)),
                phi_ac_phi0=0.4,
                alpha_rad=0.5,
                theta_rad=float(rng.uniform(-math.pi, math.pi)),
                p=p,
            )
            theta0 = float(rng.uniform(-math.pi, math.pi))
            a = distort_pulse(pulse, tf, theta0)
            b = distort_pulse(pulse, tf, theta0 + 2 * math.pi / (p - 1))
            shift = wrap_angle(a.theta_rad - pulse.theta_rad - (1 - p) * theta0)
            assert shift == pytest.approx(0.0, abs=1e-12)
            assert wrap_angle(a.theta_rad - b.theta_rad) == pytest.approx(0.0, abs=1e-12)


class TestTransferFunction:
    def make(self):
        return TransferFunction(
            freqs_mhz=(10.0, 50.0, 100.0, 200.0, 400.0),
            transmission=(0.98, 0.95, 0.9, 0.7, 0.4),
        )

    def test_interpolates_through_nodes(self):
        tf = self.make()
        for f, t in zip(tf.freqs_mhz, tf.transmission):
            assert tf.at(f) == pytest.approx(t, abs=1e-12)

    def test_out_of_band(self):
        tf = self.make()
        with pytest.raises(OutOfBand):
            tf.at(5.0)
        with pytest.raises(OutOfBand):
            tf.at(401.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TransferFunction(freqs_mhz=(1.0, 2.0), transmission=(0.5, 0.5))
        with pytest.raises(ValidationError):
            TransferFunction(
                freqs_mhz=(1.0, 3.0, 2.0, 4.0), transmission=(0.5, 0.5, 0.5, 0.5)
            )
        with pytest.raises(ValidationError):
            TransferFunction(
                freqs_mhz=(1.0, 2.0, 3.0, 4.0), transmission=(0.5, -0.1, 0.5, 0.5)
            )

    @pytest.mark.parametrize(
        "freqs", [(10.0, 20.0, 30.0, 1e300), (1e-300, 2e-300, 20.0, 30.0)]
    )
    def test_table_the_interpolant_cannot_hold(self, freqs):
        # the monotone cubic's slopes overflow; no .at() call is needed
        with pytest.raises(ValidationError, match="transfer function table"):
            TransferFunction(freqs_mhz=freqs, transmission=(1.0, 0.9, 0.8, 0.5))

    def test_interpolant_built_once_per_table(self, monkeypatch):
        import fluxmod.pulses as pulses

        built = []
        build = pulses._monotone_cubic

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(pulses, "_monotone_cubic", counting)
        tf = self.make()
        freqs = np.array([12.0, 77.7, 333.0])
        first = tf.at(freqs)
        assert np.array_equal(tf.at(freqs), first)
        assert tf.at(77.7) == first[1]
        assert len(built) == 1

    @pytest.mark.parametrize("shape", ["monotone", "any"])
    def test_matches_scipy_pchip(self, shape):
        # the numpy cubic is scipy's PchipInterpolator: same slopes, same
        # end conditions, agreement to round-off on and between the knots
        rng = np.random.default_rng(11 if shape == "monotone" else 12)
        for _ in range(150):
            size = int(rng.integers(4, 41))
            f = rng.uniform(1.0, 100.0) + np.cumsum(rng.uniform(0.01, 60.0, size))
            t = rng.uniform(0.02, 1.5, size)
            # repeated values give flat secants, where the slopes are set to zero
            t[rng.integers(0, size, 2)] = t[0]
            if shape == "monotone":
                t = np.sort(t)[:: rng.choice([-1, 1])]
            tf = TransferFunction(freqs_mhz=tuple(f), transmission=tuple(t))
            x = np.concatenate([f, rng.uniform(f[0], f[-1], 400)])
            ref = PchipInterpolator(f, t)(x)
            assert np.max(np.abs(tf.at(x) - ref)) <= 1e-14 * np.max(np.abs(t))


class TestCompensation:
    def test_factors_are_reciprocals(self):
        tf = reference_transfer_function()
        pulse = BichromaticPulse(fm_mhz=80.0, phi_ac_phi0=0.4, alpha_rad=0.5, p=3)
        s1, sp = apply_transfer_compensation(pulse, tf)
        assert s1 == pytest.approx(1.0 / tf.at(80.0), abs=1e-12)
        assert sp == pytest.approx(1.0 / tf.at(240.0), abs=1e-12)

    def test_compensate_then_distort_is_identity(self):
        tf = reference_transfer_function()
        rng = np.random.default_rng(9)
        for _ in range(20):
            pulse = BichromaticPulse(
                fm_mhz=float(rng.uniform(30, 150)),
                phi_ac_phi0=float(rng.uniform(0.1, 0.7)),
                alpha_rad=float(rng.uniform(0.05, math.pi / 2 - 0.05)),
                theta_rad=float(rng.uniform(-math.pi, math.pi)),
                p=3,
            )
            theta0 = float(rng.uniform(-math.pi, math.pi))
            emitted = distort_pulse(compensate_pulse(pulse, tf, theta0), tf, theta0)
            assert emitted.phi_ac_phi0 == pytest.approx(pulse.phi_ac_phi0, rel=1e-12)
            assert emitted.alpha_rad == pytest.approx(pulse.alpha_rad, abs=1e-12)
            assert wrap_angle(emitted.theta_rad - pulse.theta_rad) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_scale_validation(self):
        pulse = BichromaticPulse(fm_mhz=80.0, phi_ac_phi0=0.4, alpha_rad=0.5, p=3)
        with pytest.raises(ValidationError):
            scale_tones(pulse, -1.0, 1.0)
