import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from fluxmod import (
    AliasingRisk,
    BichromaticPulse,
    EnvelopeSpec,
    InsufficientWindow,
    OutOfBand,
    TransferFunction,
    ValidationError,
    Waveform,
    apply_transfer_compensation,
    compensate_pulse,
    distort_pulse,
    effective_theta_after_shift,
    precompensate_theta,
    scale_tones,
    synthesize,
    tone_ratio,
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
        wf = synthesize(pulse, 200.0, 4.0)
        # tones can add coherently, so the plain amplitude sum is the bound
        bound = (
            abs(pulse.phi_dc_phi0)
            + pulse.amp_fundamental_phi0
            + pulse.amp_multiple_phi0
        )
        assert np.max(np.abs(wf.samples)) <= bound + 1e-12


class TestEnvelope:
    def test_starts_at_zero_tops_at_one(self):
        env = EnvelopeSpec(rise_ns=10.0)
        t = np.linspace(0.0, 100.0, 2001)
        u = env.samples(t, 100.0)
        assert u[0] < 1e-4
        assert abs(np.max(u) - 1.0) < 1e-9
        # flat section actually flat
        mid = u[(t > 25.0) & (t < 75.0)]
        assert np.max(np.abs(mid - 1.0)) < 1e-9

    def test_rise_midpoint(self):
        # endpoint rescaling pulls the crossing slightly below one half
        env = EnvelopeSpec(rise_ns=10.0)
        u = env.samples(np.array([5.0]), 100.0)
        assert u[0] == pytest.approx(0.5, abs=5e-3)

    def test_short_duration_rejected(self):
        with pytest.raises(ValidationError):
            EnvelopeSpec(rise_ns=10.0).samples(np.array([0.0]), 30.0)
        with pytest.raises(ValidationError):
            EnvelopeSpec(rise_ns=0.0)


class TestSynthesize:
    def test_aliasing_guard(self):
        pulse = BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=0.4, p=3)
        with pytest.raises(AliasingRisk):
            synthesize(pulse, 100.0, 2.0)
        synthesize(pulse, 100.0, 3.0)  # exactly ten samples per fast period

    def test_envelope_scales_ac_only(self):
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=0.4, p=3, phi_dc_phi0=0.2
        )
        wf = synthesize(pulse, 120.0, 4.0, envelope=EnvelopeSpec(rise_ns=10.0))
        assert wf.samples[0] == pytest.approx(0.2, abs=1e-6)
        # on the flat top the envelope is unity: samples equal the raw pulse
        i = int(60.0 * wf.sample_rate_gsps)
        assert wf.samples[i] == pytest.approx(pulse.flux(wf.t_ns[i]), abs=1e-9)

    def test_binary_roundtrip(self, tmp_path):
        pulse = BichromaticPulse(fm_mhz=80.0, phi_ac_phi0=0.3, alpha_rad=0.2, p=3)
        wf = synthesize(pulse, 100.0, 4.0)
        path = tmp_path / "wave.bin"
        wf.to_binary(path)
        back = Waveform.from_binary(path)
        assert back.sample_rate_gsps == wf.sample_rate_gsps
        assert np.array_equal(back.samples, wf.samples)

    def test_csv_export(self, tmp_path):
        pulse = BichromaticPulse(fm_mhz=80.0, phi_ac_phi0=0.3, p=1)
        wf = synthesize(pulse, 10.0, 2.0)
        out = tmp_path / "wave.csv"
        wf.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_ns,flux_phi0"
        assert len(lines) == len(wf.samples) + 1


class TestToneRatio:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, math.pi / 4, 1.2])
    def test_matches_tan_alpha(self, alpha):
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=alpha, theta_rad=0.9, p=3
        )
        ratio = tone_ratio(synthesize(pulse, 400.0, 4.0))
        assert not ratio.inverted
        assert ratio.value == pytest.approx(math.tan(alpha), rel=0.01)

    def test_single_tone_edges(self):
        lo = BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=0.0, p=3)
        r = tone_ratio(synthesize(lo, 400.0, 4.0))
        assert not r.inverted and r.value == pytest.approx(0.0, abs=1e-6)
        hi = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=math.pi / 2, p=3
        )
        r = tone_ratio(synthesize(hi, 400.0, 4.0))
        assert r.inverted and r.value == pytest.approx(0.0, abs=1e-6)

    def test_window_requirement(self):
        pulse = BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=0.4, p=3)
        with pytest.raises(InsufficientWindow):
            tone_ratio(synthesize(pulse, 60.0, 4.0))

    def test_no_metadata(self):
        wf = Waveform(sample_rate_gsps=1.0, samples=np.zeros(100))
        with pytest.raises(ValidationError):
            tone_ratio(wf)

    def test_leakage_floor(self):
        # off-tone harmonic bins stay below 1% of the strong tone
        rng = np.random.default_rng(11)
        for _ in range(5):
            alpha = float(rng.uniform(0.2, 1.2))
            pulse = BichromaticPulse(
                fm_mhz=100.0,
                phi_ac_phi0=0.6,
                alpha_rad=alpha,
                theta_rad=float(rng.uniform(-math.pi, math.pi)),
                p=3,
            )
            wf = synthesize(pulse, 400.0, 4.0)
            n_per = int(400.0 * pulse.fm_ghz)
            m = int(round(n_per / pulse.fm_ghz * wf.sample_rate_gsps))
            x = wf.samples[:m] - np.mean(wf.samples[:m])
            t = np.arange(m) / wf.sample_rate_gsps
            amps = {
                j: 2.0 * abs(np.mean(x * np.exp(-2j * np.pi * j * pulse.fm_ghz * t)))
                for j in range(2, 13) if j != 3
            }
            strong = pulse.phi_ac_phi0 * max(math.cos(alpha), math.sin(alpha))
            assert max(amps.values()) < 0.01 * strong


class TestPhaseAlgebra:
    def test_wrap(self):
        assert wrap_angle(math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(3 * math.pi + 0.1) == pytest.approx(-math.pi + 0.1)

    def test_p1_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            th = float(rng.uniform(-math.pi, math.pi))
            beta = float(rng.uniform(-10, 10))
            assert effective_theta_after_shift(th, 1, beta) == pytest.approx(th)

    def test_shift_formula(self):
        assert effective_theta_after_shift(0.0, 3, 0.3) == pytest.approx(-0.6)

    def test_precompensation_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = int(rng.choice([3, 5, 7]))
            desired = float(rng.uniform(-math.pi, math.pi))
            theta0 = float(rng.uniform(-math.pi, math.pi))
            programmed = precompensate_theta(desired, p, theta0)
            landed = effective_theta_after_shift(programmed, p, theta0)
            assert wrap_angle(landed - desired) == pytest.approx(0.0, abs=1e-12)

    def test_ambiguity_modulus(self):
        # offsets differing by 2 pi / (p - 1) are indistinguishable
        p, theta0 = 3, 0.4
        a = effective_theta_after_shift(0.2, p, theta0)
        b = effective_theta_after_shift(0.2, p, theta0 + 2 * math.pi / (p - 1))
        assert wrap_angle(a - b) == pytest.approx(0.0, abs=1e-12)


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

    def test_interpolant_built_once_per_table(self, monkeypatch):
        import fluxmod.pulses as pulses

        built = []

        def counting(*args):
            built.append(args)
            return PchipInterpolator(*args)

        monkeypatch.setattr(pulses, "PchipInterpolator", counting)
        tf = self.make()
        freqs = np.array([12.0, 77.7, 333.0])
        first = tf.at(freqs)
        assert np.array_equal(tf.at(freqs), first)
        assert tf.at(77.7) == first[1]
        assert len(built) == 1

    def test_csv_roundtrip(self, tmp_path):
        tf = self.make()
        path = tmp_path / "tf.csv"
        tf.to_csv(path)
        back = TransferFunction.from_csv(path)
        assert back.freqs_mhz == tf.freqs_mhz
        assert back.transmission == tf.transmission


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

    def test_compensated_round_trip_tone_ratio(self):
        # synthesize the emitted waveform and re-measure the mixing angle
        tf = reference_transfer_function()
        alpha = 0.6
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.4, alpha_rad=alpha, theta_rad=0.3, p=3
        )
        emitted = distort_pulse(compensate_pulse(pulse, tf), tf)
        ratio = tone_ratio(synthesize(emitted, 400.0, 4.0))
        assert ratio.value == pytest.approx(math.tan(alpha), rel=0.01)

    def test_scale_validation(self):
        pulse = BichromaticPulse(fm_mhz=80.0, phi_ac_phi0=0.4, alpha_rad=0.5, p=3)
        with pytest.raises(ValidationError):
            scale_tones(pulse, -1.0, 1.0)
