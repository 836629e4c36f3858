import concurrent.futures
import math
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fluxmod.modulation as modulation
from fluxmod import (
    BichromaticPulse,
    CutoffTooSmall,
    NoiseModel,
    NoRoot,
    SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0,
    ValidationError,
    avg_frequency_bessel,
    avg_frequency_harmonics,
    avg_frequency_slopes,
    avg_frequency_timedomain,
    dephasing_proxy,
    first_phase_harmonic,
    fit_spec,
    fourier_coefficients,
    ladder_curve,
    operating_point,
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
    @settings(max_examples=150)
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
        curve = ladder_curve(study_qubits[name])
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta,
            p=p, phi_dc_phi0=phi_dc,
        )
        try:
            bessel = avg_frequency_bessel(series, pulse, m_max=64)
        except CutoffTooSmall:
            assume(False)
        [fbar], [dac], [ddc] = avg_frequency_slopes(
            curve, phi_dc, p, alpha, theta, [amp]
        )
        assert fbar == pytest.approx(bessel, abs=1e-10)

        h = 1e-4
        steps = h * np.array([-2.0, -1.0, 1.0, 2.0])
        f_ac = avg_frequency_slopes(curve, phi_dc, p, alpha, theta, amp + steps)[0]
        f_dc = [
            avg_frequency_slopes(curve, phi_dc + s, p, alpha, theta, [amp])[0][0]
            for s in steps
        ]
        assert dac == pytest.approx(_stencil(f_ac, h), abs=1e-8)
        assert ddc == pytest.approx(_stencil(f_dc, h), abs=1e-8)

    def test_batch_shapes(self, q1):
        curve = ladder_curve(q1)
        out = avg_frequency_slopes(curve, 0.0, 3, 0.5, 0.3, np.linspace(0.1, 0.8, 5))
        assert [a.shape for a in out] == [(5,)] * 3
        [single], _, _ = avg_frequency_slopes(curve, 0.0, 3, 0.5, 0.3, [0.8])
        assert single == pytest.approx(out[0][-1], abs=1e-12)


@pytest.mark.parametrize(
    "band", [(5.5, 1.5, -0.2), (6.0, 0.8, -0.2)], ids=["r0.837", "r0.974"]
)
@pytest.mark.parametrize(
    "p, alpha, theta, amp",
    [(1, 0.0, 0.0, 0.3), (3, 0.6, 1.1, 0.45), (5, 1.2, -0.4, 0.9)],
)
def test_wide_range_kernel_matches_time_domain(band, p, alpha, theta, amp):
    # near-symmetric SQUIDs, where a 24-harmonic cosine series was 3e-5 GHz
    # off; the oracle needs 8192 nodes to settle at p = 5, amplitude 0.9
    spec = fit_spec(*band)
    pulse = BichromaticPulse(
        fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta, p=p
    )
    [fbar], _, _ = avg_frequency_slopes(ladder_curve(spec), 0.0, p, alpha, theta, [amp])
    assert abs(fbar - avg_frequency_timedomain(spec, pulse, nodes=8192)) < 1e-6


class TestQuadratureNodes:
    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4"])
    def test_study_qubits_keep_512_nodes(self, study_qubits, name):
        # 512 nodes per period, once the fixed count, stays the most any
        # study-qubit pulse needs
        curve = ladder_curve(study_qubits[name])
        for alpha in np.linspace(0.0, math.pi / 2, 17):
            assert modulation._quadrature_nodes(curve, 5, alpha, 0.9) <= 512

    def test_chosen_count_agrees_with_twice_as_many(self, q1, monkeypatch):
        # a wide-range qubit, then a study qubit, on one stream of draws
        curves = [ladder_curve(fit_spec(5.5, 1.5, -0.2))] * 12 + [ladder_curve(q1)] * 12
        rng = np.random.default_rng(7)
        counts = []
        for curve in curves:
            p = int(rng.integers(1, 6))
            alpha, theta = rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi)
            amps = rng.uniform(0.05, 0.9, 3)
            phi_dc = rng.uniform(-0.2, 0.2)
            nodes = modulation._quadrature_nodes(curve, p, alpha, amps.max())
            counts.append(nodes)
            chosen = avg_frequency_slopes(curve, phi_dc, p, alpha, theta, amps)
            with monkeypatch.context() as m:
                m.setattr(modulation, "_QUAD_NODES", 2 * nodes)
                doubled = avg_frequency_slopes(curve, phi_dc, p, alpha, theta, amps)
            assert np.max(np.abs(chosen[0] - doubled[0])) < 1e-12
            assert np.max(np.abs(chosen[1] - doubled[1])) < 1e-9
        # the rule both goes below 512 and doubles past it
        assert min(counts) < 512 < max(counts)

    @settings(max_examples=150)
    @given(
        f_max=st.floats(3.0, 7.0),
        tunability=st.floats(0.02, 2.0 / 3.0),
        channel=st.sampled_from(["f01", "f12"]),
        p=st.integers(1, 5),
        alpha=st.floats(0.0, math.pi / 2),
        theta=st.floats(-math.pi, math.pi),
        phi_dc=st.floats(-0.5, 0.5),
        amps=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=8),
    )
    @example(
        f_max=5.25, tunability=0.157, channel="f01", p=40, alpha=0.1, theta=0.3,
        phi_dc=0.05, amps=[0.9],
    )
    @example(
        f_max=5.25, tunability=0.157, channel="f01", p=40, alpha=0.1, theta=0.3,
        phi_dc=0.05, amps=[0.0],
    )
    def test_any_chosen_count_agrees_with_twice_as_many(
        self, f_max, tunability, channel, p, alpha, theta, phi_dc, amps
    ):
        # anywhere in the fit domain the bound either certifies a count
        # above p that twice as many nodes confirm, or refuses
        curve = ladder_curve(fit_spec(f_max, f_max * (1.0 - tunability), -0.2), channel)
        amps = np.array(amps)
        try:
            nodes = modulation._quadrature_nodes(curve, p, alpha, amps.max())
        except CutoffTooSmall:
            return
        assert nodes > p
        chosen = avg_frequency_slopes(curve, phi_dc, p, alpha, theta, amps)
        with mock.patch.object(modulation, "_QUAD_NODES", 2 * nodes):
            doubled = avg_frequency_slopes(curve, phi_dc, p, alpha, theta, amps)
        assert np.max(np.abs(chosen[0] - doubled[0])) < 1e-12
        assert np.max(np.abs(chosen[1] - doubled[1])) < 1e-9
        assert np.max(np.abs(chosen[2] - doubled[2])) < 1e-9

    def test_slope_terms_pick_the_count(self, study_qubits, monkeypatch):
        # with the f_bar tolerance loose, only the two slope terms of the
        # bound certify the count; starting at 4 nodes, a small amplitude
        # reaches counts near p, where the phi_ac term's order N - p decides
        monkeypatch.setattr(modulation, "_ALIAS_TOL", 1e-3)
        monkeypatch.setattr(modulation, "_QUAD_NODES", 4)
        # the cache key leaves out the tolerances
        modulation._bandwidth_limits.cache_clear()
        specs = [study_qubits[name] for name in ("q1", "q2", "q3", "q4")]
        rng = np.random.default_rng(13)
        try:
            for spec in specs + [fit_spec(5.5, 1.5, -0.2)]:
                curve = ladder_curve(spec)
                for p in range(1, 6):
                    alpha, theta = rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi)
                    amps, phi_dc = rng.uniform(0.05, 0.9, 3), rng.uniform(-0.2, 0.2)
                    small = amps[:1] * 10.0 ** rng.uniform(-6.0, -2.0)
                    for batch in (amps, small):
                        nodes = modulation._quadrature_nodes(curve, p, alpha, batch.max())
                        chosen = avg_frequency_slopes(curve, phi_dc, p, alpha, theta, batch)
                        with monkeypatch.context() as m:
                            m.setattr(modulation, "_QUAD_NODES", 2 * nodes)
                            doubled = avg_frequency_slopes(
                                curve, phi_dc, p, alpha, theta, batch
                            )
                        assert np.max(np.abs(chosen[1] - doubled[1])) < 1e-9, (spec, p, batch)
                        assert np.max(np.abs(chosen[2] - doubled[2])) < 1e-9, (spec, p, batch)
        finally:
            modulation._bandwidth_limits.cache_clear()

    def test_non_finite_amplitude_is_rejected(self, q1):
        curve = ladder_curve(q1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="amplitude"):
                avg_frequency_slopes(curve, 0.0, 3, 0.5, 0.1, [0.3, bad])

    def test_node_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(modulation, "_MAX_QUAD_NODES", 512)
        curve = ladder_curve(fit_spec(6.0, 0.8, -0.2))
        with pytest.raises(CutoffTooSmall):
            avg_frequency_slopes(curve, 0.0, 5, 1.2, 0.0, [0.9])


def _row_by_row(curve, phi_dc, p, alpha, theta, amps):
    rows = [avg_frequency_slopes(curve, phi_dc, p, alpha, theta, [a]) for a in amps]
    return [np.concatenate(column) for column in zip(*rows)]


class TestKernelBlocks:
    # (node count, amplitude count): 1, one row short of a full block, one
    # row past it, and 1025 rows; the cases cycle through both ladders and p
    CASES = [
        (nodes, count)
        for nodes in (512, 1024, 2048, 4096, 8192, 16384, 32768)
        for rows in [modulation._BLOCK_ELEMENTS // nodes]
        for count in sorted({1, max(1, rows - 1), rows + 1})
    ] + [(512, 1025), (512, 1025)]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_blocks_match_one_row_at_a_time(self, q3, monkeypatch, case):
        nodes, count = self.CASES[case]
        monkeypatch.setattr(modulation, "_QUAD_NODES", nodes)
        curve = ladder_curve(q3, ("f01", "f12")[case % 2])
        p = 1 + case % 5
        rng = np.random.default_rng(case)
        alpha, theta = rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi)
        phi_dc, amps = rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.9, count)
        assert modulation._quadrature_nodes(curve, p, alpha, amps.max()) == nodes
        fbar, dac, ddc = avg_frequency_slopes(curve, phi_dc, p, alpha, theta, amps)
        ref = _row_by_row(curve, phi_dc, p, alpha, theta, amps)
        assert np.max(np.abs(fbar - ref[0])) <= 1e-14
        assert np.max(np.abs(dac - ref[1])) <= 1e-12
        assert np.max(np.abs(ddc - ref[2])) <= 1e-12

    def test_warm_call_allocates_no_amplitude_by_node_array(self, q1):
        import tracemalloc

        curve, amps = ladder_curve(q1), np.linspace(0.05, 0.9, 1025)
        avg_frequency_slopes(curve, 0.01, 3, 0.4, 0.7, amps)
        tracemalloc.start()
        try:
            avg_frequency_slopes(curve, 0.01, 3, 0.4, 0.7, amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 1025 x 512 array of doubles alone is 4.2 MB
        assert peak < 1 << 20

    def test_results_do_not_share_the_workspace(self, q1):
        curve = ladder_curve(q1)
        first = avg_frequency_slopes(curve, 0.0, 3, 0.4, 0.7, np.linspace(0.1, 0.8, 33))
        kept = [a.copy() for a in first]
        phase = curve.at_phase(np.linspace(0.0, 6.0, 512), slope=True)
        kept_phase = [a.copy() for a in phase]
        avg_frequency_slopes(curve, 0.1, 5, 1.0, -0.2, np.linspace(0.2, 0.9, 40))
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))
        assert all(np.array_equal(a, b) for a, b in zip(phase, kept_phase))

    def test_threads_keep_their_own_workspace(self, q1, q3):
        import sys
        import threading

        # four callers on two cores, each with its own curve, pulse and batch size
        calls = [
            (ladder_curve(spec), 0.05 * i, 1 + 2 * (i % 3), 0.3 * i, -0.5 * i,
             np.linspace(0.05, 0.9, 17 + 16 * i))
            for i, spec in enumerate((q1, q3, q1, q3))
        ]
        expected = [avg_frequency_slopes(*c) for c in calls]
        mismatches = []

        def worker(i):
            for _ in range(20):
                got = avg_frequency_slopes(*calls[i])
                if not all(np.array_equal(a, b) for a, b in zip(got, expected[i])):
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(calls))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches


class TestPhasePerRow:
    # p 1-5 on both ladders; 512 or 4096 nodes; one row, and one row past
    # a full block
    @pytest.mark.parametrize("case", range(10))
    def test_matches_one_scalar_call_per_phase(self, q3, monkeypatch, case):
        nodes, p = (512, 4096)[case % 2], 1 + case // 2
        monkeypatch.setattr(modulation, "_QUAD_NODES", nodes)
        curve = ladder_curve(q3, ("f01", "f12")[case % 2])
        rng = np.random.default_rng(100 + case)
        alpha, phi_dc = rng.uniform(0.0, math.pi / 2), rng.uniform(-0.2, 0.2)
        for count in (1, modulation._BLOCK_ELEMENTS // nodes + 1):
            amps, thetas = rng.uniform(0.05, 0.9, count), rng.uniform(-math.pi, math.pi, count)
            assert modulation._quadrature_nodes(curve, p, alpha, amps.max()) == nodes
            fbar, dac, ddc = avg_frequency_slopes(curve, phi_dc, p, alpha, thetas, amps)
            ref = [
                np.concatenate(column) for column in zip(*(
                    avg_frequency_slopes(curve, phi_dc, p, alpha, float(t), [a])
                    for t, a in zip(thetas, amps)
                ))
            ]
            assert np.max(np.abs(fbar - ref[0])) <= 1e-14
            assert np.max(np.abs(dac - ref[1])) <= 1e-12
            assert np.max(np.abs(ddc - ref[2])) <= 1e-12

    def test_one_phase_per_amplitude(self, q1):
        with pytest.raises(ValidationError, match="theta_rad"):
            avg_frequency_slopes(ladder_curve(q1), 0.0, 3, 0.5, [0.1, 0.2], [0.3, 0.4, 0.5])


class TestBatchIndependence:
    PHASE = st.one_of(st.floats(-math.pi, math.pi), st.sampled_from([-1.0, 0.5, 2.0]))

    @settings(max_examples=40)
    @given(
        name=st.sampled_from(["q1", "q2", "q3", "q4", "r0.837", "r0.974"]),
        p=st.integers(1, 5),
        alpha=st.floats(0.0, math.pi / 2),
        phi_dc=st.floats(-0.5, 0.5),
        amps=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=200),
        thetas=st.lists(PHASE, min_size=200, max_size=200),
        per_row=st.booleans(),
    )
    @example(
        name="r0.837", p=3, alpha=0.9, phi_dc=0.1, amps=np.linspace(0.0, 0.9, 200).tolist(),
        thetas=[-1.0, 0.5, 2.0, 0.25] * 50, per_row=True,
    )
    @example(
        name="q3", p=5, alpha=0.4, phi_dc=0.0, amps=np.linspace(0.9, 0.0, 200).tolist(),
        thetas=[0.3] * 200, per_row=False,
    )
    def test_an_entry_does_not_depend_on_its_batch(
        self, study_qubits, name, p, alpha, phi_dc, amps, thetas, per_row
    ):
        # each amplitude is summed at its own node count, so its entry is
        # the one it gets alone, whatever else the batch holds; per-row
        # phases mix repeats (a drive table) with distinct ones
        curve = ladder_curve({**study_qubits, **WIDE_RANGE}[name])
        thetas = thetas[: len(amps)] if per_row else [thetas[0]] * len(amps)
        try:
            fbar, dac, ddc = avg_frequency_slopes(
                curve, phi_dc, p, alpha, thetas if per_row else thetas[0], amps
            )
        except CutoffTooSmall:
            # the batch refuses exactly when its largest amplitude does alone
            with pytest.raises(CutoffTooSmall):
                avg_frequency_slopes(curve, phi_dc, p, alpha, 0.0, [max(amps)])
            return
        for i, (theta, amp) in enumerate(zip(thetas, amps)):
            [f], [s_ac], [s_dc] = avg_frequency_slopes(curve, phi_dc, p, alpha, theta, [amp])
            assert fbar[i] == f and ddc[i] == s_dc, (i, amp)
            assert abs(dac[i] - s_ac) <= 1e-14, (i, amp)


class TestFirstPhaseHarmonic:
    @pytest.mark.parametrize("name", ["q1", "q3"])
    def test_matches_the_closed_form_on_study_qubits(self, study_qubits, name):
        # where the 24-term cosine series has converged, its Bessel row 1 is the same number
        spec = study_qubits[name]
        for p, alpha, amp, phi_dc in [(3, 0.5, 0.45, 0.0), (5, 1.1, 0.3, 0.1), (3, 0.9, 0.2, -0.2)]:
            pulse = BichromaticPulse(
                fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, p=p, phi_dc_phi0=phi_dc
            )
            closed = avg_frequency_harmonics(fourier_coefficients(spec), pulse, 1)[1]
            assert first_phase_harmonic(spec, pulse) == pytest.approx(closed, abs=1e-12)

    def test_matches_a_dense_projection_on_a_wide_range_qubit(self):
        # a near-symmetric SQUID, where the series' row 1 is off by up to 9e-4 GHz
        spec = fit_spec(6.0, 0.8, -0.2)
        curve = ladder_curve(spec)
        thetas = np.arange(512) * (2.0 * math.pi / 512)
        for p, alpha, amp in [(3, 0.4, 0.3), (5, 1.2, 0.45), (3, 1.3, 0.1)]:
            pulse = BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, p=p)
            fbar = avg_frequency_slopes(curve, 0.0, p, alpha, thetas, np.full(512, amp))[0]
            dense = 2.0 * np.mean(fbar * np.cos(thetas))
            assert first_phase_harmonic(spec, pulse) == pytest.approx(dense, abs=1e-10)

    def test_phase_count_is_capped(self, monkeypatch):
        # this pulse's harmonics reach past m = 16, so 64 phases do not settle
        monkeypatch.setattr(modulation, "_MAX_PHASE_SAMPLES", 64)
        pulse = BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.45, alpha_rad=1.2, p=5)
        with pytest.raises(CutoffTooSmall, match="phases"):
            first_phase_harmonic(fit_spec(6.0, 0.8, -0.2), pulse)


class TestSensitivities:
    def test_dc_protection_at_zero_bias(self, q1, bichro_pulse):
        s = operating_point(q1, bichro_pulse)
        assert abs(s.dfbar_ddc_ghz_per_phi0) < 1e-8

    def test_dc_sensitivity_off_bias(self, q1):
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=0.3, alpha_rad=0.5, p=3, phi_dc_phi0=0.2
        )
        s = operating_point(q1, pulse)
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
        s = operating_point(q1, pulse)
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
        s = operating_point(q1, pulse)
        assert abs(s.dfbar_dac_ghz_per_phi0) < SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0

    def test_root_next_to_a_proxy_sample(self, q1):
        # this root lies 1.7e-7 left of a Lobatto sample whose slope is
        # +2.5e-8, and the proxy's own root lands just right of it
        alpha, theta = 0.18652852181148008, -2.1777963434648946
        (amp, _), = sweet_spot_solve(q1, 0.0, 1, alpha, theta)
        assert amp == pytest.approx(0.675343, abs=2e-6)
        curve = ladder_curve(q1)
        left, right = avg_frequency_slopes(curve, 0.0, 1, alpha, theta, [amp - 2e-6, amp + 2e-6])[1]
        assert left < 0.0 < right

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
        for window in ((0.9, 0.05), (0.3, 0.3)):
            with pytest.raises(ValidationError, match="window"):
                sweet_spot_atlas(q1, 0.0, 3, [0.3], [0.2], window=window)

    def test_proxy_degree_is_capped(self, q1, monkeypatch):
        import fluxmod.modulation as modulation

        # no tail is below a negative tolerance, so the degree doubles to the cap
        monkeypatch.setattr(modulation, "_PROXY_TAIL", -1.0)
        with pytest.raises(CutoffTooSmall):
            sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0)

    @settings(max_examples=80)
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
        slope = avg_frequency_slopes(ladder_curve(spec), phi_dc, p, alpha, theta, grid)[1]
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

    @pytest.mark.parametrize("jobs, cpus, started", [
        (5000, 8, 3), (5000, 2, 2), (2, 8, 2), (5000, 1, None), (5000, None, None),
    ])
    def test_pool_is_capped(self, q1, monkeypatch, jobs, cpus, started):
        # an in-process stand-in for the pool records how many workers it
        # was asked for; None means no pool was made
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        # sweet_spot_atlas imports the pool class where it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        alphas, thetas = [0.1, 0.6, 1.2], [-2.0, 2.0]
        atlas = sweet_spot_atlas(q1, 0.0, 3, alphas, thetas, jobs=jobs)
        assert asked == ([] if started is None else [started])
        assert atlas == sweet_spot_atlas(q1, 0.0, 3, alphas, thetas)

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


# the two near-symmetric SQUIDs of the wide-range tests, by junction ratio
WIDE_RANGE = {"r0.837": fit_spec(5.5, 1.5, -0.2), "r0.974": fit_spec(6.0, 0.8, -0.2)}


class TestRowEngine:
    # (qubit, p, alpha) rows of eight theta nodes: on the first two, nodes
    # settle their proxies at degree 32 and at 64 and some hold no root
    ROWS = [("q1", 1, 0.3), ("q1", 3, 1.1), ("q3", 5, 0.7)]
    THETAS = np.linspace(-math.pi, math.pi, 8, endpoint=False)

    @pytest.mark.parametrize("name, p, alpha", ROWS)
    def test_row_matches_one_solve_per_node(self, study_qubits, name, p, alpha):
        spec = study_qubits[name]
        atlas = sweet_spot_atlas(spec, 0.0, p, [alpha], self.THETAS)
        by_theta = {}
        for pt in atlas.points:
            by_theta.setdefault(pt.pulse.theta_rad, []).append(pt.pulse.phi_ac_phi0)
        no_root = 0
        for theta in self.THETAS:
            try:
                alone = [amp for amp, _ in sweet_spot_solve(spec, 0.0, p, alpha, float(theta))]
            except NoRoot:
                alone, no_root = [], no_root + 1
            got = by_theta.get(float(theta), [])
            assert len(got) == len(alone), theta
            assert np.max(np.abs(np.subtract(got, alone)), initial=0.0) <= 1e-9, theta
        assert atlas.n_no_root == no_root
        assert atlas.n_grid_nodes == self.THETAS.size

    def test_rows_cover_mixed_degrees_and_empty_nodes(self, study_qubits):
        # the rows above are the cases they claim to be
        for name, p, alpha in self.ROWS[:2]:
            curve = ladder_curve(study_qubits[name])

            def slope(row, amps):
                return avg_frequency_slopes(curve, 0.0, p, alpha, self.THETAS[row], amps)[1]

            degrees = {c.size - 1 for c, _, _ in modulation._slope_proxies(
                slope, self.THETAS.size, (0.05, 0.9))}
            assert degrees == {32, 64}
            assert sweet_spot_atlas(study_qubits[name], 0.0, p, [alpha], self.THETAS).n_no_root

    def test_one_node_cutoff_propagates(self, q1, monkeypatch):
        # with the proxy capped at degree 32, the row's degree-64 nodes cannot
        # settle; the others still solve alone, but the atlas refuses
        monkeypatch.setattr(modulation, "_PROXY_MAX_DEGREE", 32)
        sweet_spot_solve(q1, 0.0, 1, 0.3, float(self.THETAS[1]))
        with pytest.raises(CutoffTooSmall, match="slope proxy"):
            sweet_spot_atlas(q1, 0.0, 1, [0.3], self.THETAS)

    def test_newton_groups_stop_on_their_own(self):
        # two groups polished together return what each returns alone
        levels = np.array([0.2, 0.7, 0.3, 0.9])
        groups = np.array([0, 1, 1, 0])

        def run(idx, **kw):
            def evaluate(x):
                return np.sin(x) - levels[idx], np.cos(x), 2.0 * x
            return modulation.bracketed_newton(
                evaluate, np.full(idx.size, 0.1), np.zeros(idx.size), np.full(idx.size, 1.5),
                -np.ones(idx.size), 1e-12, what="test", **kw,
            )

        together, (extra,) = run(np.arange(4), groups=groups)
        for g in (0, 1):
            idx = np.flatnonzero(groups == g)
            alone, (alone_extra,) = run(idx)
            assert np.array_equal(together[idx], alone)
            assert np.array_equal(extra[idx], alone_extra)


class TestAtlasResult:
    def test_pickle_round_trip(self, q1):
        import pickle

        atlas = sweet_spot_atlas(q1, 0.02, 3, [0.3, 0.9], [-1.0, 0.5, 2.0], fm_mhz=120.0)
        loaded = pickle.loads(pickle.dumps(atlas))
        assert loaded == atlas and loaded.points == atlas.points
        assert loaded.fbar_span_ghz == atlas.fbar_span_ghz
        assert not loaded.table.flags.writeable
        assert loaded != sweet_spot_atlas(q1, 0.02, 3, [0.3], [-1.0, 0.5, 2.0], fm_mhz=120.0)

    def test_table_is_read_only(self, q1):
        atlas = sweet_spot_atlas(q1, 0.0, 3, [0.5], [-1.0, 0.0, 1.0])
        assert atlas.table.shape == (len(atlas.points), 6)
        with pytest.raises(ValueError):
            atlas.table[0, 2] = 0.0

    def test_kept_answer_is_small(self, study_qubits):
        import gc
        import tracemalloc

        # the atlas workload's requests: one seeded alpha row of six thetas
        rng = np.random.default_rng(3)
        names = sorted(study_qubits)

        def request():
            offset = rng.uniform(0.0, 1.0 / 6)
            return (
                study_qubits[names[int(rng.integers(4))]], float(rng.uniform(-0.02, 0.02)),
                int(rng.choice([3, 5])), [float(rng.uniform(0.0, 0.25)) * 2 * math.pi],
                [(offset + i / 6 - 0.5) * 2 * math.pi for i in range(6)],
            )

        requests = [request() for _ in range(200)]
        tracemalloc.start()
        try:
            kept = [sweet_spot_atlas(*req) for req in requests]
            points = sum(len(a.points) for a in kept)
            gc.collect()
            with_answers = tracemalloc.get_traced_memory()[0]
            # what the answers hold is what dropping them frees; caches and
            # the kernel's workspace stay
            del kept
            gc.collect()
            per_answer = (with_answers - tracemalloc.get_traced_memory()[0]) / len(requests)
        finally:
            tracemalloc.stop()
        assert points > 1000
        assert per_answer <= 1200, per_answer


def _reference_weights(curve, pulse, nodes=65536):
    """Sideband weights of ``pulse`` on ``curve`` at a fixed 65536 nodes, by
    FFT index (order k at index k mod nodes), and the mean frequency; the
    phase is the rfft antiderivative of the frequency."""
    tau = np.arange(nodes) / nodes
    drive = math.cos(pulse.alpha_rad) * np.cos(2 * math.pi * tau) + math.sin(
        pulse.alpha_rad
    ) * np.cos(2 * math.pi * pulse.p * tau + pulse.theta_rad)
    finst, _ = curve.at_phase(2 * math.pi * (pulse.phi_dc_phi0 + pulse.phi_ac_phi0 * drive))
    harmonics = np.fft.rfft(finst) / nodes
    n = np.arange(1, harmonics.size - 1)
    phase = np.fft.irfft(
        np.concatenate([[0.0], harmonics[1:-1] / (2j * math.pi * n), [0.0]]) * nodes, nodes
    )
    weights = np.fft.fft(np.exp(2j * math.pi * (phase - phase[0]) / pulse.fm_ghz)) / nodes
    return weights, float(harmonics[0].real)


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

    def test_ladder_frequencies(self, q1, mono_pulse):
        spec = sideband_weights(q1, mono_pulse)
        assert spec.frequency_ghz(-2) == pytest.approx(
            spec.f_bar_ghz - 2 * mono_pulse.fm_ghz, abs=1e-12
        )

    def test_profile_cache_ignores_the_label(self):
        from fluxmod.modulation import _periodic_phase

        spec = fit_spec(5.25, 4.426, -0.205, label="a")
        pulse = BichromaticPulse(
            fm_mhz=90.0, phi_ac_phi0=0.33, alpha_rad=0.21, theta_rad=-0.52, p=5
        )
        before = _periodic_phase.cache_info()
        first = sideband_weights(spec, pulse, (-5, 5))
        between = _periodic_phase.cache_info()
        again = sideband_weights(replace(spec, label="b"), pulse, (-5, 5))
        after = _periodic_phase.cache_info()
        assert again.weights == first.weights
        # the relabelled qubit reuses the phase of every node count tried
        computed = between.misses - before.misses
        assert computed >= 1
        assert (after.misses - between.misses, after.hits - between.hits) == (0, computed)

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

    @settings(max_examples=40)
    @given(
        name=st.sampled_from(["q1", "q2", "q3", "q4", "r0.837", "r0.974"]),
        channel=st.sampled_from(["f01", "f12"]),
        p=st.integers(1, 5),
        fm_mhz=st.floats(1.0, 400.0),
        alpha=st.floats(0.0, math.pi / 2),
        theta=st.floats(-math.pi, math.pi),
        phi_dc=st.floats(-0.2, 0.2),
        amp=st.floats(0.05, 0.9),
    )
    def test_weights_match_a_65536_node_reference(
        self, study_qubits, name, channel, p, fm_mhz, alpha, theta, phi_dc, amp
    ):
        spec = study_qubits[name] if name in study_qubits else WIDE_RANGE[name]
        pulse = BichromaticPulse(
            fm_mhz=fm_mhz, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta, p=p,
            phi_dc_phi0=phi_dc,
        )
        spectrum = sideband_weights(spec, pulse, channel=channel)
        ref, fbar = _reference_weights(ladder_curve(spec, channel), pulse)
        ks = np.array(spectrum.ks)
        assert np.max(np.abs(np.array(spectrum.weights) - ref[ks])) < 1e-12
        assert spectrum.f_bar_ghz == pytest.approx(fbar, abs=1e-11)
        # nothing the spectrum leaves out holds weight
        outside = np.ones(ref.size, dtype=bool)
        outside[ks] = False
        assert np.max(np.abs(ref[outside]), initial=0.0) < 1e-13

    def test_small_excursion_approaches_jacobi_anger(self, q1):
        # a p = 1 drive of amplitude A off the sweet spot swings f01 by
        # delta = f'(phi_dc) 2 pi A, so the weights tend to the Bessel
        # weights J_k(delta / fm), here at delta / fm = 1.5; the curvature
        # correction shrinks like A
        from scipy.special import jv

        phi_dc, ks = 0.15, np.arange(-12, 13)
        _, [slope] = ladder_curve(q1).at_phase(np.array([2 * math.pi * phi_dc]), slope=True)
        errors = []
        for amp in (1e-3, 1e-4, 1e-5):
            delta = slope * 2 * math.pi * amp
            fm_ghz = abs(delta) / 1.5
            pulse = BichromaticPulse(
                fm_mhz=fm_ghz * 1e3, phi_ac_phi0=amp, p=1, phi_dc_phi0=phi_dc
            )
            spectrum = sideband_weights(q1, pulse, (-12, 12))
            errors.append(np.max(np.abs(np.array(spectrum.weights) - jv(ks, delta / fm_ghz))))
        assert errors[0] < 1e-3
        assert errors[1] < 0.2 * errors[0]
        assert errors[2] < 0.2 * errors[1]

    def test_validation(self, q1, mono_pulse):
        with pytest.raises(ValidationError):
            sideband_weights(q1, mono_pulse, (5, -5))
        # |k| = 20000 needs more than the 65536-node cap
        with pytest.raises(CutoffTooSmall):
            sideband_weights(q1, mono_pulse, (-20000, 20000))
        spec = sideband_weights(q1, mono_pulse, (-4, 4))
        for k in (9, -5, 5):
            with pytest.raises(ValidationError):
                spec.weight(k)
