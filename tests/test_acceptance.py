"""End-to-end acceptance gate.

Each test exercises one headline guarantee at its stated tolerance and
prints a single ACCEPTANCE n PASS/FAIL line with the measured numbers
(run pytest -s or read the captured output).  The final test documents
quantities that a desk-scale rebuild cannot pin down, instead of
asserting them.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fluxmod import (
    BichromaticPulse,
    GateType,
    OperatingPoint,
    VirtualHardware,
    avg_frequency_bessel,
    avg_frequency_timedomain,
    calibrate_and_verify,
    chevron_simulate,
    fourier_coefficients,
    operating_point,
    optimize_weight,
    plan_gate,
    resonance_fm,
    sideband_weights,
    sweet_spot_atlas,
    sweet_spot_solve,
)

TURN = 2.0 * math.pi


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {n}: {detail}"


def _fwhm_mhz(plan) -> float:
    cmap = chevron_simulate(plan, n_fm=161, n_t=161)
    env = cmap.population.max(axis=1)
    above = cmap.fm_mhz[env >= 0.5]
    return float(above[-1] - above[0])


def test_01_dual_route_frequency_average(q1, q3):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for i in range(200):
        spec = (q1, q3)[i % 2]
        pulse = BichromaticPulse(
            fm_mhz=100.0,
            phi_ac_phi0=float(rng.uniform(0.0, 0.8)),
            alpha_rad=float(rng.uniform(0.0, math.pi / 2.0)),
            theta_rad=float(rng.uniform(-math.pi, math.pi)),
            p=int(rng.choice([1, 3, 5])),
            phi_dc_phi0=float(rng.uniform(-0.4, 0.4)),
        )
        gap = abs(
            avg_frequency_bessel(fourier_coefficients(spec), pulse)
            - avg_frequency_timedomain(spec, pulse)
        )
        worst = max(worst, gap)
    dt = time.perf_counter() - t0
    _report(
        1,
        worst < 1e-6 and dt < 60.0,
        f"closed form vs direct quadrature: max gap {worst:.3e} GHz over 200 "
        f"random pulses (limit 1e-06) in {dt:.1f} s (limit 60)",
    )


def test_02_monochromatic_sweet_spot(q1):
    t0 = time.perf_counter()
    roots = sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0)
    dt = time.perf_counter() - t0
    amp = roots[0][0]
    _report(
        2,
        len(roots) == 1 and abs(amp - 0.60) <= 0.03 and dt < 5.0,
        f"single-tone stationary amplitude {amp:.6f} (want 0.60 +- 0.03, "
        f"unique; found {len(roots)}) in {dt:.2f} s (limit 5)",
    )


def test_03_sweet_spot_continuum_span(q1):
    t0 = time.perf_counter()
    alphas = np.linspace(0.0, math.pi / 2.0, 32)
    thetas = np.linspace(-math.pi, math.pi, 32, endpoint=False)
    atlas = sweet_spot_atlas(q1, 0.0, 3, alphas, thetas)
    dt = time.perf_counter() - t0
    lo, hi = atlas.fbar_span_ghz
    span = (hi - lo) * 1e3
    _report(
        3,
        span >= 200.0 and dt < 300.0,
        f"p=3 atlas on a 32x32 grid spans {span:.1f} MHz of averaged "
        f"frequency (want >= 200) in {dt:.1f} s (limit 300)",
    )


def test_04_collision_resolution(q1, pair12):
    mono_amp, mono_fbar = sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0)[0]
    alpha, theta = 0.085 * TURN, -0.06 * TURN
    amp, fbar = sweet_spot_solve(q1, 0.0, 3, alpha, theta)[0]
    reduction = (1.0 - amp / mono_amp) * 100.0
    shift = (fbar - mono_fbar) * 1e3

    mono_point = operating_point(
        q1, BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=mono_amp, p=1)
    )
    mono_plan = plan_gate(pair12, mono_point, GateType.CZ02, -2)
    flagged = any(
        c.kind == "gate_resonance" and c.gate_type == "iswap" and c.k == -4
        for c in mono_plan.collisions
    )
    bichro_point = operating_point(
        q1,
        BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta, p=3
        ),
    )
    bichro_plan = plan_gate(pair12, bichro_point, GateType.CZ02, -2)
    _report(
        4,
        abs(reduction - 25.0) <= 8.0
        and abs(shift - 234.0) <= 35.0
        and flagged
        and not bichro_plan.collisions,
        f"amplitude reduced {reduction:.1f}% (want 25 +- 8), averaged "
        f"frequency up {shift:.1f} MHz (want 234 +- 35); single-tone plan "
        f"flags the shared cz02/iswap drive: {flagged}; two-tone plan "
        f"collisions: {len(bichro_plan.collisions)}",
    )


def test_05_sideband_shift_law(q1, pair12):
    pts = []
    for alpha in (0.2, 0.5):
        amp, fbar = sweet_spot_solve(q1, 0.0, 3, alpha, 0.3)[0]
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=0.3, p=3
        )
        pts.append(OperatingPoint(pulse, fbar, 0.0, 0.0, True))
    delta_mhz = (pts[1].f_bar_ghz - pts[0].f_bar_ghz) * 1e3
    moves = {}
    for k in (-2, -4):
        moves[k] = resonance_fm(pair12, pts[1], GateType.ISWAP, k) - resonance_fm(
            pair12, pts[0], GateType.ISWAP, k
        )
    err2 = abs(moves[-2] - delta_mhz / 2.0) / abs(delta_mhz / 2.0)
    err4 = abs(moves[-4] - delta_mhz / 4.0) / abs(delta_mhz / 4.0)
    _report(
        5,
        err2 < 1e-12 and err4 < 1e-12,
        f"under a {delta_mhz:.3f} MHz average-frequency shift the k=-2 "
        f"resonance moves delta/2 (rel err {err2:.2e}) and k=-4 moves "
        f"delta/4 (rel err {err4:.2e}); limit 1e-12",
    )


def test_06_symmetry_suite(q1):
    pulse = BichromaticPulse(
        fm_mhz=100.0, phi_ac_phi0=0.45, alpha_rad=0.5, theta_rad=1.1, p=3
    )
    spectrum = sideband_weights(q1, pulse, (-30, 30))
    odd_max = max(
        abs(spectrum.weight(k)) for k in spectrum.ks if k % 2 != 0
    )
    sens = operating_point(q1, pulse)
    wide = sideband_weights(q1, pulse, (-200, 200))
    total = sum(abs(w) ** 2 for w in wide.weights)
    _report(
        6,
        odd_max < 1e-10
        and abs(sens.dfbar_ddc_ghz_per_phi0) < 1e-5
        and abs(total - 1.0) <= 1e-6,
        f"odd sidebands at zero dc bias, p=3: max {odd_max:.2e} (limit "
        f"1e-10); dc sensitivity {sens.dfbar_ddc_ghz_per_phi0 * 1e6:.3f} "
        f"kHz/Phi0 (limit 10); total weight power {total:.9f} (want 1 +- 1e-6)",
    )


def test_07_weight_optimization(q3, pair34):
    t0 = time.perf_counter()
    mono_amp, _ = sweet_spot_solve(q3, 0.0, 1, 0.0, 0.0)[0]
    mono_point = operating_point(
        q3, BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=mono_amp, p=1)
    )
    mono_plan = plan_gate(pair34, mono_point, GateType.CZ02, -8)
    best = optimize_weight(pair34, 3, -8)
    dt = time.perf_counter() - t0
    ratio = best.g_eff_mhz / mono_plan.g_eff_mhz
    dur_ratio = mono_plan.duration_ns / best.duration_ns
    _report(
        7,
        ratio >= 2.0
        and dur_ratio == pytest.approx(ratio, rel=1e-9)
        and not best.collisions
        and dt < 600.0,
        f"k=-8 weight optimization: {ratio:.2f}x the single-tone coupling "
        f"(want >= 2), duration shrinks by the same factor "
        f"({dur_ratio:.2f}x), collision-free, in {dt:.1f} s (limit 600)",
    )


def test_08_chevron_consistency(q1, pair12):
    mono_amp, _ = sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0)[0]
    point = operating_point(
        q1, BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=mono_amp, p=1)
    )
    fast = plan_gate(pair12, point, GateType.ISWAP, -2)
    cmap = chevron_simulate(fast, n_t=61)
    t_step = float(cmap.t_ns[1] - cmap.t_ns[0])
    t_fit = cmap.t_first_max_on_resonance()
    t_expect = 1e3 / (4.0 * fast.g_eff_mhz)
    time_ok = abs(t_fit - t_expect) <= t_step

    plan_a = plan_gate(pair12, point, GateType.CZ02, -2)
    plan_b = plan_gate(pair12, point, GateType.ISWAP, -4)
    width_a, width_b = _fwhm_mhz(plan_a), _fwhm_mhz(plan_b)
    predicted = (plan_a.g_eff_mhz / 2.0) / (plan_b.g_eff_mhz / 4.0)
    measured = width_a / width_b
    width_ok = abs(measured / predicted - 1.0) <= 0.10
    _report(
        8,
        time_ok and width_ok,
        f"zero-detuning full transfer at {t_fit:.2f} ns vs 1/(4 g_eff) = "
        f"{t_expect:.2f} ns (grid step {t_step:.2f}); width ratio "
        f"{measured:.3f} vs g_eff/|k| prediction {predicted:.3f} "
        f"({abs(measured / predicted - 1) * 100:.1f}%, limit 10%)",
    )


def test_09_calibration_closed_loop(q1):
    hw = VirtualHardware(spec=q1, theta0_rad=0.25)
    desired = BichromaticPulse(
        fm_mhz=100.0, phi_ac_phi0=0.45, alpha_rad=0.5, theta_rad=1.1, p=3
    )
    probes = tuple(np.linspace(20.0, 480.0, 10)) + (100.0, 300.0)
    out = calibrate_and_verify(hw, desired, probes)
    half = math.pi / (desired.p - 1)
    theta_err = abs(
        (out.theta0.theta0_rad - 0.25 + half) % (2.0 * half) - half
    )
    tf_err = max(
        abs(t / float(hw.transfer.at(f)) - 1.0)
        for f, t in zip(out.transfer.freqs_mhz, out.transfer.transmission)
    )
    _report(
        9,
        theta_err < 1e-3 and tf_err < 5e-3 and abs(out.residual_khz) < 2.0,
        f"hidden phase offset recovered to {theta_err:.2e} rad (limit 1e-3 "
        f"mod {2 * half:.4f}), transfer function to {tf_err:.2e} relative "
        f"(limit 5e-3), closed-loop residual {out.residual_khz:.6f} kHz "
        f"(limit 2)",
    )


# Measured operating points of the characterized device, used as loose
# cross-checks only: (p, alpha/turn, theta/turn, fbar MHz, fm MHz, phi_ac).
# The single-tone row carries p=1, alpha=0.  Durations and fidelities are
# excluded; see the declaration in the test below.
REFERENCE_ROWS = [
    (3, 0.005, 0.570, 4663.0, 95.04, 0.67),
    (1, 0.000, 0.000, 4694.0, 110.41, 0.60),
    (3, 0.005, 0.045, 4711.0, 118.88, 0.63),
    (3, 0.015, 0.210, 4727.0, 126.87, 0.65),
    (3, 0.015, 0.200, 4759.0, 71.50, 0.63),
    (3, 0.020, -0.050, 4775.0, 150.93, 0.55),
    (3, 0.025, 0.150, 4804.0, 82.84, 0.61),
    (3, 0.035, -0.100, 4810.0, 168.42, 0.54),
    (3, 0.035, 0.000, 4832.0, 179.33, 0.52),
    (3, 0.050, -0.045, 4877.0, 202.17, 0.50),
    (3, 0.060, -0.032, 4898.0, 212.70, 0.48),
    (3, 0.075, -0.056, 4916.0, 221.59, 0.48),
    (3, 0.085, -0.060, 4928.0, 227.49, 0.47),
]


def test_10_declared_nonreproducibles(q1, pair12):
    print(
        "\nNot reproducible from a three-number device fit and therefore "
        "not asserted: absolute dephasing times, randomized-benchmarking "
        "gate fidelities, and process tomography maps.  The reference "
        "operating table below is cross-checked loosely (+-30 MHz on the "
        "averaged frequency, +-15 MHz on the drive frequency at the "
        "inferred sideband order) and documented per row."
    )
    n_f, n_fm = 0, 0
    rows_checked = 0
    for p, alpha_turn, theta_turn, fbar_ref, fm_ref, amp_ref in REFERENCE_ROWS:
        alpha, theta = alpha_turn * TURN, theta_turn * TURN
        roots = sweet_spot_solve(q1, 0.0, p, alpha, theta)
        amp, fbar = min(roots, key=lambda r: abs(r[0] - amp_ref))
        pulse = BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta, p=p
        )
        point = OperatingPoint(pulse, fbar, 0.0, 0.0, True)
        fm_by_k = {
            k: resonance_fm(pair12, point, GateType.CZ02, k) for k in (-2, -4)
        }
        k = min(fm_by_k, key=lambda kk: abs(fm_by_k[kk] - fm_ref))
        d_f = fbar * 1e3 - fbar_ref
        d_fm = fm_by_k[k] - fm_ref
        f_ok, fm_ok = abs(d_f) <= 30.0, abs(d_fm) <= 15.0
        n_f += f_ok
        n_fm += fm_ok
        rows_checked += 1
        print(
            f"  row {rows_checked:2d}: p={p} alpha/turn={alpha_turn:+.3f} "
            f"theta/turn={theta_turn:+.3f} amp {amp:.3f} (ref {amp_ref:.2f}) "
            f"fbar {fbar * 1e3:7.1f} MHz (ref-{fbar_ref:.0f}: {d_f:+6.1f}, "
            f"{'in' if f_ok else 'OUT'}) k={k} fm {fm_by_k[k]:6.2f} MHz "
            f"(ref-{fm_ref:.2f}: {d_fm:+6.2f}, {'in' if fm_ok else 'OUT'})"
        )
    _report(
        10,
        rows_checked == len(REFERENCE_ROWS),
        f"non-reproducibles declared; reference table documented per row: "
        f"{n_f}/{rows_checked} averaged frequencies within 30 MHz, "
        f"{n_fm}/{rows_checked} drive frequencies within 15 MHz "
        f"(documentation only, not asserted)",
    )
