import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxmod import (
    BichromaticPulse,
    CutoffTooSmall,
    NoiseModel,
    NoRoot,
    SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0,
    ValidationError,
    avg_frequency_bessel,
    avg_frequency_slopes,
    avg_frequency_timedomain,
    dephasing_proxy,
    fit_spec,
    fourier_coefficients,
    operating_point,
    sensitivities,
    sideband_weights,
    sweet_spot_atlas,
    sweet_spot_solve,
    transition_frequencies,
)


class TestAverageFrequency:
    def test_zero_amplitude_limit(self, q1):
        # no modulation: the average is the static frequency at the dc bias
        for phi_dc in (0.0, 0.17, 0.31):
            pulse = BichromaticPulse(
                fm_mhz=100.0, phi_ac_phi0=0.0, p=3, phi_dc_phi0=phi_dc
            )
            f01, _ = transition_frequencies(q1, phi_dc)
            assert avg_frequency_timedomain(q1, pulse) == pytest.approx(
                f01, abs=1e-9
            )
            series = fourier_coefficients(q1)
            assert avg_frequency_bessel(series, pulse) == pytest.approx(
                f01, abs=1e-9
            )

    def test_quadrature_self_converged(self, q1, bichro_pulse):
        coarse = avg_frequency_timedomain(q1, bichro_pulse, nodes=2048)
        fine = avg_frequency_timedomain(q1, bichro_pulse, nodes=8192)
        assert abs(coarse - fine) < 1e-9

    def test_routes_agree(self, q1, bichro_pulse, mono_pulse):
        series = fourier_coefficients(q1)
        for pulse in (bichro_pulse, mono_pulse):
            td = avg_frequency_timedomain(q1, pulse)
            bs = avg_frequency_bessel(series, pulse)
            assert abs(td - bs) < 1e-9

    def test_node_minimum(self, q1, mono_pulse):
        with pytest.raises(ValidationError):
            avg_frequency_timedomain(q1, mono_pulse, nodes=512)

    def test_cutoff_guard(self, q1):
        series = fourier_coefficients(q1)
        deep = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.9, alpha_rad=math.pi / 4, p=1
        )
        with pytest.raises(CutoffTooSmall):
            avg_frequency_bessel(series, deep, m_max=8)
        with pytest.raises(ValidationError):
            avg_frequency_bessel(series, deep, m_max=4)

    def test_theta_periodicity(self, q1):
        # f bar is a cosine series in theta: even and 2 pi periodic
        series = fourier_coefficients(q1)
        base = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.4, alpha_rad=0.6, theta_rad=0.8, p=3
        )
        from dataclasses import replace

        f0 = avg_frequency_bessel(series, base)
        assert avg_frequency_bessel(
            series, replace(base, theta_rad=-0.8)
        ) == pytest.approx(f0, abs=1e-12)
        assert avg_frequency_bessel(
            series, replace(base, theta_rad=0.8 - 2 * math.pi)
        ) == pytest.approx(f0, abs=1e-12)


@pytest.fixture(scope="module")
def study_qubits(q1, q2, q3, q4):
    return {"q1": q1, "q2": q2, "q3": q3, "q4": q4}


def _stencil(values, h):
    return (8.0 * (values[2] - values[1]) - (values[3] - values[0])) / (12.0 * h)


class TestSlopesKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(["q1", "q2", "q3", "q4"]),
        p=st.sampled_from([1, 3, 5]),
        alpha=st.floats(0.0, math.pi / 2),
        theta=st.floats(-2 * math.pi, 2 * math.pi),
        phi_dc=st.floats(-0.2, 0.2),
        amp=st.floats(0.05, 0.9),
    )
    def test_matches_bessel_and_own_stencil(
        self, study_qubits, name, p, alpha, theta, phi_dc, amp
    ):
        series = fourier_coefficients(study_qubits[name])
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta,
            p=p, phi_dc_phi0=phi_dc,
        )
        try:
            bessel = avg_frequency_bessel(series, pulse, m_max=64)
        except CutoffTooSmall:
            assume(False)
        [fbar], [dac], [ddc] = avg_frequency_slopes(
            series, phi_dc, p, alpha, theta, [amp]
        )
        assert fbar == pytest.approx(bessel, abs=1e-10)

        h = 1e-4
        steps = h * np.array([-2.0, -1.0, 1.0, 2.0])
        f_ac = avg_frequency_slopes(series, phi_dc, p, alpha, theta, amp + steps)[0]
        f_dc = [
            avg_frequency_slopes(series, phi_dc + s, p, alpha, theta, [amp])[0][0]
            for s in steps
        ]
        assert dac == pytest.approx(_stencil(f_ac, h), abs=1e-8)
        assert ddc == pytest.approx(_stencil(f_dc, h), abs=1e-8)

    def test_batch_shapes(self, q1):
        series = fourier_coefficients(q1)
        out = avg_frequency_slopes(series, 0.0, 3, 0.5, 0.3, np.linspace(0.1, 0.8, 5))
        assert [a.shape for a in out] == [(5,)] * 3
        [single], _, _ = avg_frequency_slopes(series, 0.0, 3, 0.5, 0.3, [0.8])
        assert single == pytest.approx(out[0][-1], abs=1e-12)


class TestSensitivities:
    def test_dc_protection_at_zero_bias(self, q1, bichro_pulse):
        s = sensitivities(q1, bichro_pulse)
        assert abs(s.dfbar_ddc_ghz_per_phi0) < 1e-8

    def test_dc_sensitivity_off_bias(self, q1):
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.3, alpha_rad=0.5, p=3, phi_dc_phi0=0.2
        )
        s = sensitivities(q1, pulse)
        assert abs(s.dfbar_ddc_ghz_per_phi0) > 1e-2

    def test_ac_derivative_against_bessel(self, q1):
        # cross-check the quadrature-based derivative against the closed form
        series = fourier_coefficients(q1)
        from dataclasses import replace

        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.35, alpha_rad=0.7, theta_rad=-0.4, p=3
        )
        h = 1e-4
        stencil = [
            avg_frequency_bessel(series, replace(pulse, phi_ac_phi0=0.35 + s * h))
            for s in (-2, -1, 1, 2)
        ]
        expected = (8 * (stencil[2] - stencil[1]) - (stencil[3] - stencil[0])) / (
            12 * h
        )
        s = sensitivities(q1, pulse)
        assert s.dfbar_dac_ghz_per_phi0 == pytest.approx(expected, abs=1e-8)


class TestSweetSpotSolve:
    def test_monochromatic_root_q1(self, q1):
        roots = sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0)
        assert len(roots) == 1
        amp, fbar = roots[0]
        assert amp == pytest.approx(0.601059, abs=2e-4)
        f01_0, _ = transition_frequencies(q1, 0.0)
        assert fbar < f01_0  # average dips below the zero-bias frequency

    def test_monochromatic_root_q3(self, q3):
        roots = sweet_spot_solve(q3, 0.0, 1, 0.0, 0.0)
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(0.596689, abs=2e-4)

    def test_root_is_stationary(self, q1):
        amp, _ = sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0, xtol=1e-9)[0]
        pulse = BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=amp, p=1)
        s = sensitivities(q1, pulse)
        assert abs(s.dfbar_dac_ghz_per_phi0) < SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0

    def test_bichromatic_two_roots(self, q1):
        alpha, theta = 0.085 * 2 * math.pi, -0.06 * 2 * math.pi
        roots = sweet_spot_solve(q1, 0.0, 3, alpha, theta)
        assert len(roots) == 2
        assert roots[0][0] == pytest.approx(0.45658, abs=5e-4)
        assert roots[0][0] < roots[1][0]

    @pytest.mark.parametrize(
        "name, p, alpha, theta",
        [
            ("q1", 1, 0.0, 0.0),
            ("q1", 3, 0.085 * 2 * math.pi, -0.06 * 2 * math.pi),
            ("q2", 5, 1.0, -2.0),
            ("q4", 3, 0.2, 1.0),
        ],
    )
    def test_one_root_per_bessel_sign_change(self, study_qubits, name, p, alpha, theta):
        # every sign change of the closed-form slope on a dense grid is
        # found, once, and each returned root brackets a true sign change
        spec = study_qubits[name]
        series = fourier_coefficients(spec)
        base = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.1, alpha_rad=alpha, theta_rad=theta, p=p
        )

        def fbar(a):
            return avg_frequency_bessel(series, replace(base, phi_ac_phi0=a), m_max=64)

        grid = np.linspace(0.05, 0.9, 341)
        rises = np.diff([fbar(a) for a in grid])
        n_changes = int(np.sum(rises[:-1] * rises[1:] < 0.0))
        xtol, h = 1e-6, 2.5e-7
        roots = sweet_spot_solve(spec, 0.0, p, alpha, theta, xtol=xtol)
        assert len(roots) == n_changes
        for amp, _ in roots:
            left = fbar(amp - xtol + h) - fbar(amp - xtol - h)
            right = fbar(amp + xtol + h) - fbar(amp + xtol - h)
            assert left * right < 0.0

    def test_no_root_in_narrow_window(self, q1):
        with pytest.raises(NoRoot):
            sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0, window=(0.05, 0.2))

    def test_window_validation(self, q1):
        with pytest.raises(ValidationError):
            sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0, window=(0.5, 0.1))

    def test_proxy_degree_is_capped(self, q1, monkeypatch):
        import fluxmod.modulation as modulation

        # no tail is ever exactly zero, so the degree doubles to the cap
        monkeypatch.setattr(modulation, "_PROXY_TAIL", 0.0)
        with pytest.raises(CutoffTooSmall):
            sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(["q1", "q2", "q3", "q4"]),
        p=st.integers(1, 5),
        alpha=st.floats(0.0, math.pi / 2),
        theta=st.floats(-math.pi, math.pi),
        phi_dc=st.floats(-0.2, 0.2),
    )
    def test_one_root_per_dense_kernel_sign_change(
        self, study_qubits, name, p, alpha, theta, phi_dc
    ):
        # the proxy must neither lose nor invent a root that a dense scan
        # of the kernel's own slope resolves
        spec, xtol = study_qubits[name], 1e-6
        grid = np.linspace(0.05, 0.9, 1025)
        series = fourier_coefficients(spec)
        # in cache-sized batches; one 1025-amplitude call is three times slower
        slope = np.concatenate([
            avg_frequency_slopes(series, phi_dc, p, alpha, theta, batch)[1]
            for batch in np.array_split(grid, 16)
        ])
        changes = np.nonzero(slope[:-1] * slope[1:] < 0.0)[0]
        try:
            roots = sweet_spot_solve(spec, phi_dc, p, alpha, theta, xtol=xtol)
        except NoRoot:
            roots = []
        assert len(roots) == changes.size
        for (amp, _), i in zip(roots, changes):
            assert grid[i] - xtol <= amp <= grid[i + 1] + xtol


class TestOperatingPoint:
    def test_sweet_flag_on_root(self, q1):
        amp, fbar = sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0)[0]
        pt = operating_point(
            q1, BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=amp, p=1)
        )
        assert pt.is_sweet_spot
        assert pt.f_bar_ghz == pytest.approx(fbar, abs=1e-9)

    def test_not_sweet_off_root(self, q1):
        pt = operating_point(
            q1, BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.3, p=1)
        )
        assert not pt.is_sweet_spot

    def test_ac_root_off_dc_bias_not_sweet(self, q1):
        # stationary in the ac knob but exposed to dc noise: not protected
        roots = sweet_spot_solve(q1, 0.2, 3, 0.4, 0.0)
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=roots[0][0], alpha_rad=0.4, p=3,
            phi_dc_phi0=0.2,
        )
        pt = operating_point(q1, pulse)
        assert abs(pt.dfbar_dac_ghz_per_phi0) < SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0
        assert not pt.is_sweet_spot

    def test_dephasing_proxy(self, q1):
        pt = operating_point(
            q1, BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.3, p=1)
        )
        expected = math.hypot(
            2.0 * pt.dfbar_ddc_ghz_per_phi0, 0.5 * pt.dfbar_dac_ghz_per_phi0
        )
        assert dephasing_proxy(pt, NoiseModel(a_dc=2.0, a_ac=0.5)) == pytest.approx(
            expected
        )


class TestAtlas:
    def test_small_grid(self, q1):
        alphas = np.linspace(0.0, math.pi / 2, 6)
        thetas = np.linspace(-math.pi, math.pi, 6, endpoint=False)
        atlas = sweet_spot_atlas(q1, 0.0, 3, alphas, thetas)
        assert atlas.n_grid_nodes == 36
        assert len(atlas.points) + atlas.n_no_root >= 36
        lo, hi = atlas.fbar_span_ghz
        assert hi > lo
        # at zero dc bias with odd p, every stationary point is protected
        assert all(pt.is_sweet_spot for pt in atlas.points)

    def test_jobs_do_not_change_results(self, q1):
        alphas = np.linspace(0.1, 1.2, 4)
        thetas = np.linspace(-2.0, 2.0, 3)
        a1 = sweet_spot_atlas(q1, 0.0, 3, alphas, thetas, jobs=1)
        a2 = sweet_spot_atlas(q1, 0.0, 3, alphas, thetas, jobs=2)
        assert len(a1.points) == len(a2.points)
        for p1, p2 in zip(a1.points, a2.points):
            assert p1.pulse == p2.pulse
            assert p1.f_bar_ghz == p2.f_bar_ghz

    def test_csv_export(self, q1, tmp_path):
        alphas = [0.3]
        thetas = [0.0, 1.0]
        atlas = sweet_spot_atlas(q1, 0.0, 3, alphas, thetas)
        out = tmp_path / "atlas.csv"
        atlas.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "alpha_rad,theta_rad,phi_ac_phi0,fbar_ghz,dfdac_ghz_per_phi0,sweet_flag"
        )
        assert len(lines) == len(atlas.points) + 1

    def test_grid_validation(self, q1):
        with pytest.raises(ValidationError):
            sweet_spot_atlas(q1, 0.0, 3, [], [0.0])


class TestSidebandWeights:
    def test_parseval(self, q1, mono_pulse):
        spec = sideband_weights(q1, mono_pulse, (-40, 40))
        assert spec.power_in_range == pytest.approx(1.0, abs=1e-6)

    def test_odd_sidebands_vanish(self, q1):
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=0.6, theta_rad=0.7, p=3
        )
        spec = sideband_weights(q1, pulse, (-9, 9))
        for k in range(-9, 10, 2):
            assert abs(spec.weight(k)) < 1e-10

    def test_odd_sidebands_present_off_bias(self, q1):
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.4, alpha_rad=0.6, p=3, phi_dc_phi0=0.15
        )
        spec = sideband_weights(q1, pulse, (-5, 5))
        assert max(abs(spec.weight(k)) for k in (-3, -1, 1, 3)) > 1e-3

    def test_real_at_zero_theta(self, q1):
        # theta = 0 makes the drive time-even, so all weights are real
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=0.6, theta_rad=0.0, p=3
        )
        spec = sideband_weights(q1, pulse, (-8, 8))
        assert max(abs(w.imag) for w in spec.weights) < 1e-10

    def test_fbar_matches_quadrature(self, q1, bichro_pulse):
        spec = sideband_weights(q1, bichro_pulse)
        td = avg_frequency_timedomain(q1, bichro_pulse)
        assert spec.f_bar_ghz == pytest.approx(td, abs=1e-9)

    def test_weights_concentrate_at_high_fm(self, q1):
        from dataclasses import replace

        base = BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.5, alpha_rad=0.4, p=3)
        w_lo = abs(sideband_weights(q1, base).weight(0))
        w_hi = abs(sideband_weights(q1, replace(base, fm_mhz=300.0)).weight(0))
        assert w_hi > w_lo

    def test_constant_coupling_callable_matches_none(self, q1, mono_pulse):
        a = sideband_weights(q1, mono_pulse, (-6, 6))
        b = sideband_weights(
            q1, mono_pulse, (-6, 6), coupling=lambda flux: np.full_like(flux, 7.3)
        )
        for wa, wb in zip(a.weights, b.weights):
            assert wa == pytest.approx(wb, abs=1e-12)

    def test_flux_dependent_coupling_keeps_parseval(self, q1, mono_pulse):
        spec = sideband_weights(
            q1, mono_pulse, (-40, 40), coupling=lambda flux: 5.0 + np.cos(2 * np.pi * flux)
        )
        assert spec.power_in_range == pytest.approx(1.0, abs=1e-6)

    def test_ladder_frequencies(self, q1, mono_pulse):
        spec = sideband_weights(q1, mono_pulse)
        assert spec.frequency_ghz(-2) == pytest.approx(
            spec.f_bar_ghz - 2 * mono_pulse.fm_ghz, abs=1e-12
        )

    def test_profile_cache_ignores_the_label(self):
        from fluxmod.modulation import _instantaneous_frequency

        spec = fit_spec(5.25, 4.426, -0.205, label="a")
        pulse = BichromaticPulse(
            fm_mhz=90.0, phi_ac_phi0=0.33, alpha_rad=0.21, theta_rad=-0.52, p=5
        )
        before = _instantaneous_frequency.cache_info()
        first = sideband_weights(spec, pulse, (-5, 5))
        again = sideband_weights(replace(spec, label="b"), pulse, (-5, 5))
        after = _instantaneous_frequency.cache_info()
        assert again.weights == first.weights
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    def test_reuse_across_fm_is_exact(self, q1):
        from dataclasses import replace

        pulse = BichromaticPulse(
            fm_mhz=120.0, phi_ac_phi0=0.37, alpha_rad=0.29, theta_rad=0.41, p=5,
            phi_dc_phi0=0.03,
        )
        first = sideband_weights(q1, pulse, (-7, 7))
        other = sideband_weights(q1, replace(pulse, fm_mhz=80.0), (-7, 7))
        again = sideband_weights(q1, pulse, (-7, 7))
        assert other.weights != first.weights
        assert again.weights == first.weights
        assert again.f_bar_ghz == first.f_bar_ghz

    def test_validation(self, q1, mono_pulse):
        with pytest.raises(ValidationError):
            sideband_weights(q1, mono_pulse, nodes=1024)
        with pytest.raises(ValidationError):
            sideband_weights(q1, mono_pulse, (5, -5))
        with pytest.raises(ValidationError):
            sideband_weights(q1, mono_pulse, (-3000, 3000))
        with pytest.raises(ValidationError):
            sideband_weights(
                q1, mono_pulse, coupling=lambda flux: np.cos(2 * np.pi * flux)
            )
        spec = sideband_weights(q1, mono_pulse, (-4, 4))
        with pytest.raises(ValidationError):
            spec.weight(9)
