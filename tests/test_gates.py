import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fluxmod.gates as gates
from fluxmod import (
    BichromaticPulse,
    GateType,
    InfeasibleError,
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
    gate_duration,
    ladder_curve,
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


def plan_spectra(pair, plan):
    """Both ladder spectra at the plan's pulse, as plan_gate computes them."""
    return {
        ch: sideband_weights(pair.modulated, plan.pulse, channel=ch) for ch in ("f01", "f12")
    }


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
                ladder_curve(q1, channel="f12"), 0.0, 1, 0.0, 0.0,
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

    def test_cap_must_be_finite(self, pair12, mono_point):
        with pytest.raises(ValidationError, match="max_fm_mhz"):
            enumerate_resonances(pair12, mono_point, max_fm_mhz=float("nan"))


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
        assert [c.kind for c in plan.collisions] == ["gate_resonance"]
        (hit,) = hits
        # f01 sideband -4 sits 7.717 MHz below f01_n, with g_n = 0.630 MHz
        assert hit.gap_mhz == pytest.approx(-7.717, abs=1e-3)
        assert hit.transfer == pytest.approx(0.0259, abs=2e-4)
        assert (hit.ladder, hit.target) == ("f01", "f01_n")

    def test_bichro_plan_is_clean(self, pair12, bichro_point):
        plan = plan_gate(pair12, bichro_point, GateType.CZ02, -2)
        assert plan.collisions == ()

    def test_bandwidth_no_longer_changes_neighbor_line_reports(self, pair12, mono_point):
        # the bandwidth is the TLS window only; neighbor lines are judged by transfer
        plans = [
            plan_gate(pair12, mono_point, GateType.CZ02, -2, bandwidth_mhz=bw)
            for bw in (1.0, gates.DEFAULT_BANDWIDTH_MHZ, 50.0)
        ]
        assert plans[0].collisions
        assert plans[1].collisions == plans[0].collisions == plans[2].collisions

    @pytest.mark.parametrize("theta_turn", [0.25, -0.25])
    def test_spectator_crossing_beyond_the_drive_window_is_reported(
        self, q1, pair12, theta_turn
    ):
        # iSWAP k=-4 at alpha = 1/44 turn: the f12 sideband -2 sits 11.63 MHz
        # from f01_n with g_n = 3.69 MHz, so the CZ02 crossing moves 0.287 of
        # the population although its resonance lies 5.8 MHz away in drive
        alpha = np.linspace(0.0, math.pi / 2.0, 12)[1]
        theta = theta_turn * 2.0 * math.pi
        (amp, _), = sweet_spot_solve(q1, 0.0, 3, alpha, theta)
        assert amp == pytest.approx(0.603173, abs=1e-6)
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta, p=3
        )
        plan = plan_gate(pair12, operating_point(q1, pulse), GateType.ISWAP, -4)
        assert plan.fm_mhz == pytest.approx(109.545, abs=1e-3)
        (hit,) = plan.collisions
        assert (hit.kind, hit.gate_type, hit.k) == ("gate_resonance", "cz02", -2)
        assert (hit.ladder, hit.target) == ("f12", "f01_n")
        assert hit.gap_mhz == pytest.approx(11.63, abs=1e-2)
        assert hit.transfer == pytest.approx(0.287, abs=1e-3)
        assert "cz02 k=-2" in hit.description

    def test_tls_hit(self, q1, q2, mono_point):
        # park a defect exactly on the f12-ladder j=-6 sideband
        plan0 = plan_gate(
            PairSpec(modulated=q1, neighbor=q2, coupling_mhz=4.0),
            mono_point, GateType.CZ02, -2,
        )
        fbar12 = float(
            avg_frequency_slopes(
                ladder_curve(q1, channel="f12"), 0.0, 1, 0.0, 0.0,
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
        # iSWAP k=-10 meets two CZ02 crossings; two defects sit 4 MHz and
        # 1 MHz from the f01 sidebands -4 and -6 (odd orders vanish at p=1)
        plan0 = plan_gate(
            PairSpec(modulated=q1, neighbor=q2, coupling_mhz=4.0),
            mono_point, GateType.ISWAP, -10,
        )
        f01, fm = plan0.f_bar_ghz, plan0.fm_mhz * 1e-3
        tls = (f01 - 4 * fm + 4e-3, f01 - 6 * fm - 1e-3)
        pair = PairSpec(modulated=q1, neighbor=q2, coupling_mhz=4.0, tls_ghz=tls)
        plan = plan_gate(pair, mono_point, GateType.ISWAP, -10)
        assert [c.kind for c in plan.collisions] == 2 * ["gate_resonance"] + 2 * ["tls"]
        transfers = [c.transfer for c in plan.collisions[:2]]
        assert transfers == sorted(transfers, reverse=True)
        assert transfers[-1] > gates._LEAKAGE_BUDGET
        assert [(c.ladder, c.k) for c in plan.collisions[2:]] == [("f01", -6), ("f01", -4)]
        assert [abs(c.gap_mhz) for c in plan.collisions[2:]] == pytest.approx([1.0, 4.0])
        assert all(math.isnan(c.transfer) for c in plan.collisions[2:])
        keys = [(c.ladder, c.k, c.target) for c in plan.collisions]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("gate, k", [(GateType.CZ02, -2), (GateType.ISWAP, -4)])
    def test_gate_resonances_match_enumeration(self, pair12, mono_point, gate, k):
        # a gate-kind row k sits gap from its line, so the drive that parks it
        # there is fm - gap / k, the resonance enumerate_resonances lists
        plan = plan_gate(pair12, mono_point, gate, k)
        expected = enumerate_resonances(pair12, mono_point)
        hits = [c for c in plan.collisions if c.kind == "gate_resonance"]
        assert hits
        for c in hits:
            assert plan.fm_mhz - c.gap_mhz / c.k == pytest.approx(
                expected[(GateType(c.gate_type), c.k)], abs=1e-8
            )

    def test_example_node_reports_its_outer_collisions(self, q1, pair12):
        # alpha = 1/44 turn, theta = -1/6 turn: a scan cut at |k| <= 10
        # would call this CZ02 k=-8 plan clean
        alpha, theta = 2 * math.pi / 44, -2 * math.pi / 6
        (amp, _), = sweet_spot_solve(q1, 0.0, 3, alpha, theta)
        assert amp == pytest.approx(0.5781, abs=1e-4)
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta, p=3
        )
        point = operating_point(q1, pulse)
        plan = plan_gate(pair12, point, GateType.CZ02, -8)
        assert plan.fm_mhz == pytest.approx(34.452, abs=1e-3)
        (hit,) = plan.collisions
        assert (hit.kind, hit.gate_type, hit.k) == ("gate_resonance", "iswap", -14)
        assert (hit.ladder, hit.target) == ("f01", "f01_n")
        assert hit.description.startswith("f01 ladder sideband k=-14 sits 0.541 MHz")
        assert hit.gap_mhz == pytest.approx(0.541, abs=1e-3)
        assert hit.transfer == pytest.approx(0.660, abs=1e-3)

    @settings(max_examples=30)
    @given(
        alpha=st.floats(0.0, math.pi / 2.0),
        theta=st.floats(-math.pi, math.pi),
        gate=st.sampled_from(GateType),
        k=st.integers(-10, -1),
    )
    def test_reports_every_crossing_over_budget_once(self, q1, pair12, alpha, theta, gate, k):
        # brute force over the spectra's rows, with the matrix-element factor
        # of each gate's (ladder, neighbor line) crossing written out; f12 on
        # f12_n is a three-excitation crossing that no gate reaches
        try:
            amp, _ = sweet_spot_solve(q1, 0.0, 3, alpha, theta)[0]
            pulse = BichromaticPulse(
                fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta, p=3
            )
            plan = plan_gate(pair12, operating_point(q1, pulse), gate, k)
        except InfeasibleError:
            assume(False)
        factor = {
            ("f01", "f01_n"): 1.0, ("f12", "f01_n"): math.sqrt(2.0),
            ("f01", "f12_n"): math.sqrt(2.0),
        }
        lines = dict(zip(("f01_n", "f12_n"), transition_frequencies(pair12.neighbor, 0.0)))
        own = (gate.ladder_channel, k, gate.neighbor_channel + "_n")
        over = {}
        for ch, spectrum in plan_spectra(pair12, plan).items():
            for n, w in zip(spectrum.ks, spectrum.weights):
                for line, f_line in lines.items():
                    if abs(w) < 1e-3 or (ch, n, line) == own or (ch, line) not in factor:
                        continue
                    g = factor[(ch, line)] * pair12.coupling_mhz * abs(w)
                    delta = (spectrum.frequency_ghz(n) - float(f_line)) * 1e3
                    transfer = g * g / (g * g + delta * delta / 4.0)
                    if transfer > 1e-2:
                        over[(ch, n, line)] = transfer
        reported = [(c.ladder, c.k, c.target) for c in plan.collisions]
        assert sorted(reported) == sorted(over)
        for c in plan.collisions:
            assert c.transfer == pytest.approx(over[(c.ladder, c.k, c.target)], rel=1e-9)

    def test_bandwidth_validation(self, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        with pytest.raises(ValidationError):
            check_collisions(plan, pair12, plan_spectra(pair12, plan), bandwidth_mhz=0.0)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda pair, pt: plan_gate(
                pair, pt, GateType.CZ02, -2, weight_floor=math.nan, bandwidth_mhz=50.0
            ), "weight_floor"),
            (lambda pair, pt: plan_gate(pair, pt, GateType.CZ02, -2, weight_floor=-1.0),
             "weight_floor"),
            (lambda pair, pt: enumerate_resonances(pair, pt, k_window=-1), "k_window"),
            (lambda pair, pt: optimize_weight(
                pair, 3, -2, grid_shape=(4, 4), weight_floor=math.nan, refine=False
            ), "weight_floor"),
        ],
        ids=[
            "plan-nan-floor", "plan-negative-floor", "enumerate-negative-window",
            "optimize-nan-floor",
        ],
    )
    def test_scan_window_is_checked(self, pair12, mono_point, call, name):
        with pytest.raises(ValidationError, match=name):
            call(pair12, mono_point)

    def test_one_spectrum_per_ladder(self, pair12, mono_point, monkeypatch):
        channels = []

        def counting(*args, **kwargs):
            channels.append(kwargs["channel"])
            return sideband_weights(*args, **kwargs)

        monkeypatch.setattr(gates, "sideband_weights", counting)
        plan_gate(pair12, mono_point, GateType.CZ02, -2)
        assert sorted(channels) == ["f01", "f12"]

    def test_spectra_must_be_the_plans(self, q1, pair12, mono_point):
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        spectra = plan_spectra(pair12, plan)
        assert check_collisions(plan, pair12, spectra) == list(plan.collisions)
        detuned = replace(plan.pulse, fm_mhz=plan.fm_mhz + 1.0)
        for bad in (
            {**spectra, "f12": sideband_weights(q1, detuned, channel="f12")},
            {"f01": spectra["f12"], "f12": spectra["f01"]},
            {"f01": spectra["f01"]},
        ):
            with pytest.raises(ValidationError, match="spectra"):
                check_collisions(plan, pair12, bad)

    def test_spectra_must_cover_the_floor(self, q1, pair12, mono_point):
        # a one-order spectrum leaves out power that could hold orders above
        # the floor, so a scan of it would not be complete
        plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
        spectra = plan_spectra(pair12, plan)
        narrow = sideband_weights(q1, plan.pulse, (-2, -2), channel="f12")
        with pytest.raises(ValidationError, match="weight_floor"):
            check_collisions(plan, pair12, {**spectra, "f12": narrow})
        # the full spectrum leaves out less than 1e-13 per order
        check_collisions(plan, pair12, spectra, weight_floor=1e-6)


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

    @pytest.mark.parametrize("gate", list(GateType))
    def test_vanishing_order_is_refused(self, pair12, mono_point, gate):
        # a single tone at the sweet spot: f_bar is even in the drive, so the
        # odd orders cancel and weigh ~1e-17, inside the spectrum's 1e-13 tail
        for k in (-1, -3, -5):
            with pytest.raises(WrongSideband, match="certified 1e-13 tail"):
                plan_gate(pair12, mono_point, gate, k)
        assert plan_gate(pair12, mono_point, gate, -2).g_eff_mhz > 0.1

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
            pair12, 3, -4, gate_type=GateType.ISWAP,
            grid_shape=(8, 8), refine=False,
        )
        assert best.g_eff_mhz > 0.9 * mono_plan.g_eff_mhz
        assert best.collisions == ()

    def test_infeasible_cap(self, q1, pair12):
        with pytest.raises(NoFeasiblePoint):
            optimize_weight(
                pair12, 3, -2, grid_shape=(4, 4), max_fm_mhz=10.0, refine=False
            )

    def test_vanishing_order_is_skipped(self, q1, pair12):
        # odd p at zero dc bias drives only odd harmonics of an even curve, so
        # every node's odd orders cancel and no node can carry k = -3
        with pytest.raises(NoFeasiblePoint):
            optimize_weight(
                pair12, 3, -3, gate_type=GateType.CZ02, grid_shape=(4, 4), refine=False
            )

    def test_jobs_reach_only_the_grid_atlas(self, pair12, monkeypatch):
        atlas, jobs = gates.sweet_spot_atlas, []

        def recording(*args, **kwargs):
            jobs.append(kwargs.get("jobs", 1))
            return atlas(*args, **kwargs)

        monkeypatch.setattr(gates, "sweet_spot_atlas", recording)
        optimize_weight(pair12, 3, -4, gate_type=GateType.ISWAP, grid_shape=(4, 4), jobs=3)
        assert jobs[0] == 3 and len(jobs) > 1 and set(jobs[1:]) == {1}

    def test_grid_validation(self, q1, pair12):
        with pytest.raises(ValidationError):
            optimize_weight(pair12, 3, -2, grid_shape=(2, 2))
