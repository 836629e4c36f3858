import math
from dataclasses import replace

import numpy as np
import pytest

from fluxmod import (
    BichromaticPulse,
    FlatResponse,
    NonMonotoneRegion,
    OutOfBand,
    TransferFunction,
    ValidationError,
    VirtualHardware,
    avg_frequency_bessel,
    calibrate_and_verify,
    calibrate_theta0,
    calibrate_transfer_function,
    distort_pulse,
    fit_spec,
    fourier_coefficients,
    load_scenario,
    reference_transfer_function,
    save_scenario,
    virtual_ramsey,
)

FLAT_TF = TransferFunction(
    freqs_mhz=(10.0, 100.0, 300.0, 500.0),
    transmission=(1.0, 1.0, 1.0, 1.0),
)


@pytest.fixture
def template():
    return BichromaticPulse(
        fm_mhz=100.0, phi_ac_phi0=0.45, alpha_rad=0.5, theta_rad=1.1, p=3
    )


class TestVirtualRamsey:
    def test_flat_line_applies_only_the_phase_offset(self, q1, template):
        # p=3 with offset 0.3 reaches the qubit with theta shifted by -0.6
        hw = VirtualHardware(spec=q1, theta0_rad=0.3, transfer=FLAT_TF)
        measured = virtual_ramsey(hw, template).f_bar_ghz
        series = fourier_coefficients(q1)
        expected = avg_frequency_bessel(
            series, replace(template, theta_rad=template.theta_rad - 0.6)
        )
        assert measured == pytest.approx(expected, abs=5e-12)

    def test_noise_is_seeded(self, q1, template):
        runs = []
        for seed in (7, 7, 8):
            hw = VirtualHardware(
                spec=q1, transfer=FLAT_TF, noise_sigma_khz=5.0, seed=seed
            )
            runs.append([virtual_ramsey(hw, template).f_bar_ghz for _ in range(4)])
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]

    def test_randomized_offset_only_touches_two_tone_pulses(self, q1):
        hw = VirtualHardware(spec=q1, transfer=FLAT_TF, randomize_theta0=True)
        mono = BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.4, p=1)
        vals = {virtual_ramsey(hw, mono).f_bar_ghz for _ in range(3)}
        assert len(vals) == 1
        bichro = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.4, alpha_rad=0.6, theta_rad=0.0, p=3
        )
        a = virtual_ramsey(hw, bichro).f_bar_ghz
        b = virtual_ramsey(hw, bichro).f_bar_ghz
        assert a != b

    def test_negative_noise_rejected(self, q1):
        with pytest.raises(ValidationError):
            VirtualHardware(spec=q1, noise_sigma_khz=-1.0)


class TestBatchedMeasurement:
    """Calibration measures a sweep or a probe set with one kernel call."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        import fluxmod.calibration as calibration

        kernel, sizes = calibration.avg_frequency_slopes, []

        def counting(*args, **kwargs):
            sizes.append(np.size(args[-1]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(calibration, "avg_frequency_slopes", counting)
        return sizes

    @pytest.mark.parametrize("randomize", [False, True])
    def test_phase_sweep_is_the_per_pulse_loop_bit_for_bit(
        self, q1, template, kernel_calls, randomize
    ):
        from fluxmod.calibration import _measure

        def hardware():
            return VirtualHardware(
                spec=q1, theta0_rad=0.3, transfer=reference_transfer_function(),
                noise_sigma_khz=3.0, seed=17, randomize_theta0=randomize,
            )

        sweep = [
            replace(template, theta_rad=float(t))
            for t in np.linspace(-math.pi, math.pi, 32, endpoint=False)
        ]
        batch = _measure(hardware(), sweep)
        assert kernel_calls == [32]
        one_by_one = hardware()
        assert batch.tolist() == [virtual_ramsey(one_by_one, p).f_bar_ghz for p in sweep]

    def test_probe_set_agrees_with_one_call_per_probe(self, q1, kernel_calls):
        from fluxmod.calibration import _measure

        hw = VirtualHardware(spec=q1, transfer=reference_transfer_function())
        probes = [
            BichromaticPulse(fm_mhz=float(f), phi_ac_phi0=0.3, p=1)
            for f in np.linspace(15.0, 480.0, 14)
        ]
        batch = _measure(hw, probes)
        assert kernel_calls == [14]
        # the batch runs at its largest amplitude's node count, each probe alone
        # at its own; both hold f_bar within the kernel's 1e-11 GHz
        one_by_one = np.array([virtual_ramsey(hw, p).f_bar_ghz for p in probes])
        assert np.max(np.abs(batch - one_by_one)) < 1e-11


class TestCalibrateTheta0:
    @pytest.mark.parametrize("theta0", [0.25, -0.4, 1.3])
    def test_noiseless_recovery(self, q1, template, theta0):
        hw = VirtualHardware(spec=q1, theta0_rad=theta0)
        est = calibrate_theta0(hw, template)
        assert est.theta0_rad == pytest.approx(theta0, abs=1e-6)
        assert est.ambiguity_rad == pytest.approx(math.pi)
        assert est.n_sweeps == 1

    def test_offset_reported_in_principal_branch(self, q1, template):
        # 2.0 and 2.0 - pi are indistinguishable for p=3
        hw = VirtualHardware(spec=q1, theta0_rad=2.0)
        est = calibrate_theta0(hw, template)
        assert est.theta0_rad == pytest.approx(2.0 - math.pi, abs=1e-6)

    def test_noisy_multi_amplitude(self, q1, template):
        hw = VirtualHardware(spec=q1, theta0_rad=0.25, noise_sigma_khz=2.0, seed=11)
        est = calibrate_theta0(hw, template, amplitudes=(0.35, 0.45, 0.55))
        err = (est.theta0_rad - 0.25 + math.pi / 2) % math.pi - math.pi / 2
        assert abs(err) < 1e-3
        assert est.n_sweeps == 3

    def test_rejects_unidentifiable_requests(self, q1, template):
        hw = VirtualHardware(spec=q1, theta0_rad=0.25)
        with pytest.raises(ValidationError):
            calibrate_theta0(hw, replace(template, p=1, alpha_rad=0.0))
        with pytest.raises(ValidationError):
            calibrate_theta0(hw, template, n_theta=8)
        with pytest.raises(ValidationError):
            calibrate_theta0(hw, replace(template, alpha_rad=0.0))

    def test_flat_response(self, q1, template):
        hw = VirtualHardware(spec=q1, theta0_rad=0.25)
        with pytest.raises(FlatResponse):
            calibrate_theta0(hw, replace(template, phi_ac_phi0=1e-5))


    def test_wide_range_offset_on_its_branch(self, template):
        # a near-symmetric SQUID, where a 24-term cosine series put the sign of
        # the first theta-harmonic wrong and 23 of these 163 offsets on the
        # other branch; the kernel's own harmonic puts each on its branch
        spec = fit_spec(6.0, 0.8, -0.2)
        rng = np.random.default_rng(3)
        checked = []
        for _ in range(200):
            p = int(rng.choice([3, 5]))
            alpha, amp = rng.uniform(0.1, 1.4), rng.uniform(0.05, 0.45)
            hw = VirtualHardware(spec=spec, theta0_rad=0.3 / (p - 1))
            pulse = replace(template, phi_ac_phi0=amp, alpha_rad=alpha, p=p)
            try:
                est = calibrate_theta0(hw, pulse, transfer=hw.transfer)
            except FlatResponse:
                continue
            checked.append(abs(est.theta0_rad - hw.theta0_rad))
        assert len(checked) >= 150
        assert max(checked) < 1e-6

class TestCalibrateTransferFunction:
    def test_pointwise_recovery(self, q1):
        hw = VirtualHardware(spec=q1)
        probes = (30.0, 80.0, 150.0, 250.0, 350.0, 450.0)
        est = calibrate_transfer_function(hw, probes)
        assert est.freqs_mhz == probes
        for f, t in zip(est.freqs_mhz, est.transmission):
            assert t == pytest.approx(float(hw.transfer.at(f)), rel=1e-6)

    def test_known_table_recovered_in_a_few_batched_kernel_calls(self, q3, monkeypatch):
        import fluxmod.calibration as calibration

        table = TransferFunction(
            freqs_mhz=(10.0, 60.0, 120.0, 200.0, 320.0, 500.0),
            transmission=(0.97, 1.02, 0.88, 0.71, 0.55, 0.31),
        )
        hw = VirtualHardware(spec=q3, transfer=table)
        probes = tuple(np.linspace(15.0, 480.0, 14))
        kernel, batches = calibration.avg_frequency_slopes, []

        def counting(*args, **kwargs):
            batches.append(np.size(args[-1]))
            return kernel(*args, **kwargs)

        # only calibration's own kernel calls go through this binding
        monkeypatch.setattr(calibration, "avg_frequency_slopes", counting)
        est = calibrate_transfer_function(hw, probes)
        for f, t in zip(est.freqs_mhz, est.transmission):
            assert abs(t - float(table.at(f))) <= 1e-12
        # the band edges, the 14 probes measured in one batch, then one
        # batch of all 14 levels per Newton step
        assert batches[0] == 2 and set(batches[1:]) == {14}
        assert len(batches) <= 10

    def test_probe_amplitude_guards(self, q1):
        hw = VirtualHardware(spec=q1)
        probes = (30.0, 80.0, 150.0, 250.0)
        with pytest.raises(NonMonotoneRegion):
            calibrate_transfer_function(hw, probes, probe_amp_phi0=0.65)
        with pytest.raises(ValidationError):
            calibrate_transfer_function(hw, probes, probe_amp_phi0=0.95)

    def test_needs_four_probes(self, q1):
        hw = VirtualHardware(spec=q1)
        with pytest.raises(ValidationError):
            calibrate_transfer_function(hw, (30.0, 80.0, 150.0))

    def test_out_of_band_probe_propagates(self, q1):
        hw = VirtualHardware(spec=q1)
        with pytest.raises(OutOfBand):
            calibrate_transfer_function(hw, (50.0, 150.0, 300.0, 600.0))


class TestClosedLoop:
    def test_calibrate_compensate_verify(self, q1, template):
        hw = VirtualHardware(spec=q1, theta0_rad=0.25)
        probes = tuple(np.linspace(20.0, 480.0, 10)) + (100.0, 300.0)
        out = calibrate_and_verify(hw, template, probes)
        assert abs(out.theta0.theta0_rad - 0.25) < 1e-6
        assert abs(out.residual_khz) < 1e-3
        # compensated pulse re-distorted lands on the requested one
        delivered = distort_pulse(out.compensated, hw.transfer, theta0_rad=0.25)
        assert delivered.phi_ac_phi0 == pytest.approx(template.phi_ac_phi0, rel=1e-9)
        assert delivered.alpha_rad == pytest.approx(template.alpha_rad, abs=1e-9)
        assert math.cos(delivered.theta_rad) == pytest.approx(
            math.cos(template.theta_rad), abs=1e-9
        )

    def test_noisy_loop_meets_budget(self, q1, template):
        hw = VirtualHardware(spec=q1, theta0_rad=0.25, noise_sigma_khz=2.0, seed=3)
        probes = tuple(np.linspace(20.0, 480.0, 10)) + (100.0, 300.0)
        out = calibrate_and_verify(
            hw, template, probes, amplitudes=(0.35, 0.45, 0.55)
        )
        err = (out.theta0.theta0_rad - 0.25 + math.pi / 2) % math.pi - math.pi / 2
        assert abs(err) < 1e-3
        for f, t in zip(out.transfer.freqs_mhz, out.transfer.transmission):
            assert t == pytest.approx(float(hw.transfer.at(f)), rel=5e-3)
        assert abs(out.residual_khz) < 10.0


    @pytest.mark.parametrize(
        "band, fm_mhz, amp, alpha_turn, theta_turn, theta0",
        [
            ((5.9251, 2.283, -0.189), 63.7592, 0.3596, 0.133, -0.0334, -0.4217),
            ((5.5132, 2.5799, -0.199), 62.4609, 0.3145, 0.1292, 0.0984, -0.1873),
            ((5.0071, 1.9163, -0.1944), 93.4865, 0.3682, 0.1186, -0.0378, 0.3347),
        ],
    )
    def test_harmonic_sign_taken_at_the_delivered_pulse(
        self, band, fm_mhz, amp, alpha_turn, theta_turn, theta0
    ):
        # the line attenuation flips the sign of the first theta-harmonic
        # between the programmed and the delivered pulse of these wide-range
        # qubits; reading the sign off the programmed pulse lands the offset
        # on the wrong branch and misses by MHz
        hw = VirtualHardware(spec=fit_spec(*band), theta0_rad=theta0)
        desired = BichromaticPulse(
            fm_mhz=fm_mhz, phi_ac_phi0=amp, alpha_rad=alpha_turn * 2 * math.pi,
            theta_rad=theta_turn * 2 * math.pi, p=3,
        )
        base = np.linspace(0.5 * fm_mhz, 4.5 * fm_mhz, 12)
        probes = tuple(sorted(set(base) | {fm_mhz, 3 * fm_mhz}))
        out = calibrate_and_verify(hw, desired, probes)
        assert abs(out.residual_khz) < 2.0


class TestScenarioIO:
    def test_round_trip(self, q1, template, tmp_path):
        hw = VirtualHardware(
            spec=q1,
            theta0_rad=0.7,
            transfer=reference_transfer_function(),
            noise_sigma_khz=1.5,
            seed=42,
        )
        path = tmp_path / "scenario.json"
        save_scenario(hw, path)
        loaded = load_scenario(path)
        assert loaded.spec == q1
        assert loaded.theta0_rad == 0.7
        assert loaded.noise_sigma_khz == 1.5
        assert loaded.seed == 42
        assert loaded.transfer.freqs_mhz == hw.transfer.freqs_mhz
        assert loaded.transfer.transmission == hw.transfer.transmission
        # loaded hardware reproduces the original measurement stream
        fresh = VirtualHardware(
            spec=q1, theta0_rad=0.7, transfer=hw.transfer,
            noise_sigma_khz=1.5, seed=42,
        )
        assert virtual_ramsey(loaded, template).f_bar_ghz == virtual_ramsey(
            fresh, template
        ).f_bar_ghz
