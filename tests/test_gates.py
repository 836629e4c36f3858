import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fluxmod import (
    BichromaticPulse,
    GateType,
    NoFeasiblePoint,
    NonPositiveCoupling,
    PairSpec,
    ValidationError,
    WrongSideband,
    avg_frequency_slopes,
    check_collisions,
    chevron_simulate,
    effective_coupling,
    enumerate_resonances,
    fourier_coefficients,
    gate_duration,
    operating_point,
    optimize_weight,
    plan_gate,
    resonance_fm,
    sideband_weights,
    sweet_spot_solve,
    transition_frequencies,
)


@pytest.fixture(scope="module")
def mono_point(q1):
    amp, _ = sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0)[0]
    pulse = BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=amp, p=1)
    return operating_point(q1, pulse)


@pytest.fixture(scope="module")
def bichro_point(q1):
    alpha, theta = 0.085 * 2 * math.pi, -0.06 * 2 * math.pi
    amp, _ = sweet_spot_solve(q1, 0.0, 3, alpha, theta)[0]
    pulse = BichromaticPulse(
        fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta, p=3
    )
    return operating_point(q1, pulse)


class TestResonanceFm:
    def test_solves_the_ladder_equation(self, pair12, mono_point):
        # plugging the returned fm back into the ladder reproduces the target
        f01n, f12n = transition_frequencies(pair12.neighbor, 0.0)
        for gate, k, target in [
            (GateType.ISWAP, -2, f01n),
            (GateType.ISWAP, -4, f01n),
            (GateType.CZ20, -2, f12n),
        ]:
            fm = resonance_fm(pair12, mono_point, gate, k)
            assert mono_point.f_bar_ghz + k * fm * 1e-3 == pytest.approx(
                target, abs=1e-12
            )

    def test_cz02_uses_upper_ladder(self, pair12, mono_point, q1):
        fm = resonance_fm(pair12, mono_point, GateType.CZ02, -2)
        f01n, _ = transition_frequencies(pair12.neighbor, 0.0)
        # the 02 crossing sits on the f12 ladder, below the f01 one
        fbar12 = float(
            avg_frequency_slopes(
                fourier_coefficients(q1, channel="f12"), 0.0, 1, 0.0, 0.0,
                [mono_point.pulse.phi_ac_phi0],
            )[0][0]
        )
        assert fbar12 - 2 * fm * 1e-3 == pytest.approx(f01n, abs=1e-12)
        assert fm != pytest.approx(
            resonance_fm(pair12, mono_point, GateType.ISWAP, -2), abs=1.0
        )

    def test_regression_pin(self, pair12, mono_point):
        assert resonance_fm(pair12, mono_point, GateType.CZ02, -2) == pytest.approx(
            107.633, abs=0.05
        )
        assert resonance_fm(pair12, mono_point, GateType.ISWAP, -4) == pytest.approx(
            105.704, abs=0.05
        )

    def test_wrong_sideband(self, pair12, mono_point):
        with pytest.raises(WrongSideband):
            resonance_fm(pair12, mono_point, GateType.CZ02, 2)
        with pytest.raises(ValidationError):
            resonance_fm(pair12, mono_point, GateType.CZ02, 0)


class TestEnumerateResonances:
    def test_contains_expected_keys(self, pair12, mono_point):
        res = enumerate_resonances(pair12, mono_point)
        assert (GateType.CZ02, -2) in res
        assert (GateType.ISWAP, -4) in res
        assert all(fm > 0 for fm in res.values())

    def test_shared_drive_frequency(self, pair12, mono_point):
        # the coincidence that motivates moving the operating point
        res = enumerate_resonances(pair12, mono_point)
        gap = res[(GateType.CZ02, -2)] - res[(GateType.ISWAP, -4)]
        assert abs(gap) < 5.0

    def test_cap_can_empty_the_map(self, pair12, mono_point):
        assert enumerate_resonances(pair12, mono_point, max_fm_mhz=10.0) == {}


class TestShiftLaw:
    def test_resonance_moves_as_fbar_over_k(self, q1, pair12):
        # moving the operating point shifts the k-th resonance by -shift/k
        pts = []
        for alpha in (0.2, 0.5):
            amp, fbar = sweet_spot_solve(q1, 0.0, 3, alpha, 0.3)[0]
            pulse = BichromaticPulse(
                fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=0.3, p=3
            )
            pts.append(
                operating_point(q1, pulse)
            )
        delta_ghz = pts[1].f_bar_ghz - pts[0].f_bar_ghz
        assert abs(delta_ghz) > 1e-3
        for k in (-2, -4):
            move = (
                resonance_fm(pair12, pts[1], GateType.ISWAP, k)
                - resonance_fm(pair12, pts[0], GateType.ISWAP, k)
            ) * 1e-3
            assert move == pytest.approx(-delta_ghz / k, rel=1e-12)


class TestCouplingAndDuration:
    def test_cz_carries_sqrt2(self, pair12):
        g_iswap = effective_coupling(pair12, 0.5, GateType.ISWAP)
        g_cz = effective_coupling(pair12, 0.5, GateType.CZ02)
        assert g_cz / g_iswap == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert g_iswap == pytest.approx(2.0, abs=1e-12)

    def test_durations(self):
        assert gate_duration(GateType.ISWAP, 4.0) == pytest.approx(62.5)
        assert gate_duration(GateType.CZ02, 4.0) == pytest.approx(125.0)
        with pytest.raises(ValidationError):
            gate_duration(GateType.CZ02, 0.0)

    def test_nonpositive_coupling_rejected(self, q1, q2):
        with pytest.raises(NonPositiveCoupling):
            PairSpec(modulated=q1, neighbor=q2, coupling_mhz=0.0)

    def test_duration_weight_invariant(self, pair12, mono_point):
        # duration * |weight| * g is gate-type constant: 1/(2 sqrt(2)) us scale
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        weight = plan.g_eff_mhz / (math.sqrt(2.0) * pair12.coupling_mhz)
        assert plan.duration_ns * weight * pair12.coupling_mhz == pytest.approx(
            1e3 / (2.0 * math.sqrt(2.0)), rel=1e-12
        )


class TestCollisions:
    def test_neighbor_lookup_ignores_the_label(self, q1, q2):
        from fluxmod.gates import _cached_neighbor_freqs, _neighbor_freqs

        nb = replace(q2, ej1_ghz=q2.ej1_ghz * (1 + 1e-9))
        pairs = [
            PairSpec(modulated=q1, neighbor=replace(nb, label=label), coupling_mhz=4.0)
            for label in ("a", "b")
        ]
        before = _cached_neighbor_freqs.cache_info()
        first, second = (_neighbor_freqs(pair) for pair in pairs)
        after = _cached_neighbor_freqs.cache_info()
        assert first == second
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    def test_mono_plan_flags_shared_resonance(self, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        hits = [
            c for c in plan.collisions
            if c.kind == "gate_resonance" and c.gate_type == "iswap" and c.k == -4
        ]
        assert len(hits) == 1
        assert abs(hits[0].gap_mhz) < 5.0

    def test_bichro_plan_is_clean(self, pair12, bichro_point):
        plan = plan_gate(pair12, bichro_point, GateType.CZ02, -2)
        assert plan.collisions == ()

    def test_narrow_bandwidth_hides_the_coincidence(self, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2, bandwidth_mhz=1.0)
        assert plan.collisions == ()

    def test_tls_hit(self, q1, q2, mono_point):
        # park a defect exactly on the f12-ladder j=-6 sideband
        plan0 = plan_gate(
            PairSpec(modulated=q1, neighbor=q2, coupling_mhz=4.0),
            mono_point, GateType.CZ02, -2,
        )
        fbar12 = float(
            avg_frequency_slopes(
                fourier_coefficients(q1, channel="f12"), 0.0, 1, 0.0, 0.0,
                [mono_point.pulse.phi_ac_phi0],
            )[0][0]
        )
        tls = fbar12 - 6 * plan0.fm_mhz * 1e-3
        pair = PairSpec(
            modulated=q1, neighbor=q2, coupling_mhz=4.0, tls_ghz=(tls,)
        )
        plan = plan_gate(pair, mono_point, GateType.CZ02, -2)
        tls_hits = [c for c in plan.collisions if c.kind == "tls"]
        assert len(tls_hits) == 1
        assert tls_hits[0].k == -6
        assert abs(tls_hits[0].gap_mhz) < 1e-6

    def test_reports_sorted_and_deduped(self, q1, q2, mono_point):
        pair = PairSpec(modulated=q1, neighbor=q2, coupling_mhz=4.0)
        plan = plan_gate(pair, mono_point, GateType.CZ02, -2, bandwidth_mhz=20.0)
        gaps = [abs(c.gap_mhz) for c in plan.collisions]
        assert gaps == sorted(gaps)
        keys = [(c.kind, c.gate_type, c.k, c.description) for c in plan.collisions]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("gate, k", [(GateType.CZ02, -2), (GateType.ISWAP, -4)])
    def test_gate_resonances_match_enumeration(self, pair12, mono_point, gate, k):
        plan = plan_gate(pair12, mono_point, gate, k)
        expected = enumerate_resonances(pair12, mono_point)
        hits = [c for c in plan.collisions if c.kind == "gate_resonance"]
        assert hits
        for c in hits:
            assert c.freq_mhz == pytest.approx(
                expected[(GateType(c.gate_type), c.k)], abs=1e-8
            )

    def test_narrow_k_window_scans_only_its_sidebands(self, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2, k_window=5)
        hits = [c for c in plan.collisions if c.kind == "gate_resonance"]
        assert [(c.gate_type, c.k) for c in hits] == [("iswap", -4)]
        assert all(abs(c.k) <= 5 for c in plan.collisions)

    def test_wide_k_window_checks_its_outer_resonances(self, pair12, mono_point):
        # the CZ02 k=-6 drive sits 0.64 MHz from the iSWAP k=-12 resonance
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -6, k_window=12)
        hits = [
            c for c in plan.collisions
            if c.kind == "gate_resonance" and c.gate_type == "iswap" and c.k == -12
        ]
        assert len(hits) == 1
        assert abs(hits[0].gap_mhz) < 1.0
        default = plan_gate(pair12, mono_point, GateType.CZ02, -6)
        assert all(abs(c.k) <= 10 for c in default.collisions)

    def test_bandwidth_validation(self, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        with pytest.raises(ValidationError):
            check_collisions(plan, pair12, bandwidth_mhz=0.0)


class TestGatePlan:
    def test_json_surface(self, pair12, mono_point, tmp_path):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        path = tmp_path / "plan.json"
        plan.to_json(path)
        data = json.loads(path.read_text())
        assert set(data) == {
            "gate_type", "k", "p", "alpha_rad", "theta_rad", "phi_ac_phi0",
            "fbar_ghz", "fm_mhz", "g_eff_mhz", "duration_ns", "collisions",
        }
        assert data["gate_type"] == "cz02"
        assert data["k"] == -2
        assert data["collisions"][0]["gate_type"] == "iswap"

    def test_weight_recomputed_at_resonance(self, q1, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        spec = sideband_weights(
            q1, replace(mono_point.pulse, fm_mhz=plan.fm_mhz), channel="f12"
        )
        expected = effective_coupling(pair12, spec.weight(-2), GateType.CZ02)
        assert plan.g_eff_mhz == pytest.approx(expected, rel=1e-9)


class TestChevron:
    def test_peak_on_resonance_and_quarter_period(self, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        # window past the first Rabi peak but short of the second
        cmap = chevron_simulate(
            plan, n_fm=41, t_max_ns=0.7 * plan.duration_ns, n_t=121
        )
        assert cmap.fm_at_peak() == pytest.approx(
            plan.fm_mhz, abs=np.diff(cmap.fm_mhz)[0]
        )
        # full transfer happens a quarter Rabi period in: 1/(4 g)
        t_step = cmap.t_ns[1] - cmap.t_ns[0]
        assert cmap.t_first_max_on_resonance() == pytest.approx(
            1e3 / (4.0 * plan.g_eff_mhz), abs=t_step
        )

    def test_population_bounds_and_lorentzian_envelope(self, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        cmap = chevron_simulate(plan, n_fm=21, n_t=201)
        assert np.all(cmap.population >= 0.0)
        assert np.all(cmap.population <= 1.0 + 1e-12)
        g = plan.g_eff_mhz * 1e-3
        i = 3
        delta = plan.k * (cmap.fm_mhz[i] - plan.fm_mhz) * 1e-3
        amp = g * g / (g * g + (delta / 2.0) ** 2)
        assert cmap.population[i].max() == pytest.approx(amp, abs=5e-3)

    def test_width_tracks_g_over_k(self, pair12, mono_point):
        # FWHM of the max-population envelope: 4 g_eff / |k| in drive frequency
        for gate, k in [(GateType.CZ02, -2), (GateType.ISWAP, -4)]:
            plan = plan_gate(pair12, mono_point, gate, k)
            cmap = chevron_simulate(plan, n_fm=161, n_t=161)
            env = cmap.population.max(axis=1)
            above = cmap.fm_mhz[env >= 0.5]
            width = above[-1] - above[0]
            assert width * abs(k) == pytest.approx(
                4.0 * plan.g_eff_mhz, rel=0.05
            )

    def test_csv(self, pair12, mono_point, tmp_path):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        cmap = chevron_simulate(plan, n_fm=5, n_t=5)
        out = tmp_path / "chevron.csv"
        cmap.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "fm_mhz,duration_ns,population"
        assert len(lines) == 26

    def test_grid_validation(self, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        with pytest.raises(ValidationError):
            chevron_simulate(plan, n_fm=3)


class TestOptimizeWeight:
    def test_small_grid_beats_mono(self, q1, pair12, mono_point):
        mono_plan = plan_gate(pair12, mono_point, GateType.ISWAP, -4)
        best = optimize_weight(
            q1, pair12, 3, -4, gate_type=GateType.ISWAP,
            grid_shape=(8, 8), refine=False,
        )
        assert best.g_eff_mhz > 0.9 * mono_plan.g_eff_mhz
        assert best.collisions == ()

    def test_infeasible_cap(self, q1, pair12):
        with pytest.raises(NoFeasiblePoint):
            optimize_weight(
                q1, pair12, 3, -2, grid_shape=(4, 4), max_fm_mhz=10.0, refine=False
            )

    def test_spec_pair_mismatch(self, q2, pair12):
        with pytest.raises(ValidationError):
            optimize_weight(q2, pair12, 3, -2)

    def test_grid_validation(self, q1, pair12):
        with pytest.raises(ValidationError):
            optimize_weight(q1, pair12, 3, -2, grid_shape=(2, 2))
