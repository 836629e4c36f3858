"""Parametric two-qubit gate planning on sideband resonances.

Modulating one qubit of a coupled pair splits its transition into
sidebands; driving the modulation at the frequency that parks a sideband
on a neighbor transition activates an exchange (iSWAP-like, via the 01
ladder) or a phase gate (CZ-like, via a 02 or 20 avoided crossing).  The
planner picks the modulation frequency for a requested gate and sideband
order, scores the effective coupling through the sideband weight, checks
the rest of the spectrum for frequency collisions, and can search the
bichromatic control plane for the operating point that maximizes gate
speed.

Surface units: couplings and modulation frequencies in MHz, durations in
ns, transition frequencies in GHz.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .errors import (
    NoFeasiblePoint,
    NonPositiveCoupling,
    NoRoot,
    ValidationError,
    WrongSideband,
    require_finite,
)
from .modulation import (
    OperatingPoint,
    avg_frequency_slopes,
    operating_point,
    sideband_weights,
    sweet_spot_solve,
)
from .pulses import BichromaticPulse
from .transmon import TransmonSpec, fourier_coefficients, transition_frequencies

__all__ = [
    "GateType",
    "PairSpec",
    "GatePlan",
    "CollisionReport",
    "ChevronMap",
    "resonance_fm",
    "enumerate_resonances",
    "check_collisions",
    "effective_coupling",
    "gate_duration",
    "plan_gate",
    "chevron_simulate",
    "optimize_weight",
]

DEFAULT_BANDWIDTH_MHZ = 5.0


class GateType(enum.Enum):
    """Parametric gate family, named by the activated avoided crossing."""

    ISWAP = "iswap"
    CZ02 = "cz02"
    CZ20 = "cz20"

    @property
    def is_cz(self) -> bool:
        return self is not GateType.ISWAP

    # which modulated-qubit ladder carries the activating sideband, and
    # which neighbor transition it must meet
    @property
    def ladder_channel(self) -> str:
        return "f12" if self is GateType.CZ02 else "f01"

    @property
    def neighbor_channel(self) -> str:
        return "f12" if self is GateType.CZ20 else "f01"


# sideband orders and gate families scanned for competing resonances
_K_SET = tuple(range(-10, 11))
_GATE_TYPES = (GateType.ISWAP, GateType.CZ02, GateType.CZ20)


@dataclass(frozen=True)
class PairSpec:
    """A modulated qubit, its static neighbor, and their coupling."""

    modulated: TransmonSpec
    neighbor: TransmonSpec
    coupling_mhz: float
    tls_ghz: tuple[float, ...] = ()
    neighbor_phi_dc_phi0: float = 0.0

    def __post_init__(self) -> None:
        require_finite(
            coupling_mhz=self.coupling_mhz,
            neighbor_phi_dc_phi0=self.neighbor_phi_dc_phi0,
            **{f"tls_ghz[{i}]": f for i, f in enumerate(self.tls_ghz)},
        )
        if self.coupling_mhz <= 0.0:
            raise NonPositiveCoupling("pair coupling must be positive (MHz)")


@lru_cache(maxsize=64)
def _cached_neighbor_freqs(
    ej1_ghz: float, ej2_ghz: float, ec_ghz: float, phi_dc: float
) -> tuple[float, float]:
    spec = TransmonSpec(ej1_ghz=ej1_ghz, ej2_ghz=ej2_ghz, ec_ghz=ec_ghz)
    f01, f12 = transition_frequencies(spec, phi_dc)
    return float(f01), float(f12)


def _neighbor_freqs(pair: PairSpec) -> tuple[float, float]:
    """Static (f01, f12) of the pair's neighbor, keyed on its junction energies."""
    nb = pair.neighbor
    return _cached_neighbor_freqs(nb.ej1_ghz, nb.ej2_ghz, nb.ec_ghz, pair.neighbor_phi_dc_phi0)


def _target_freq_ghz(pair: PairSpec, gate_type: GateType) -> float:
    f01n, f12n = _neighbor_freqs(pair)
    return f12n if gate_type.neighbor_channel == "f12" else f01n


def _ladder_fbar_ghz(pair: PairSpec, point: OperatingPoint, channel: str) -> float:
    if channel == "f01":
        return point.f_bar_ghz
    pulse = point.pulse
    fbar, _, _ = avg_frequency_slopes(
        fourier_coefficients(pair.modulated, channel=channel),
        pulse.phi_dc_phi0, pulse.p, pulse.alpha_rad, pulse.theta_rad, [pulse.phi_ac_phi0],
    )
    return float(fbar[0])


def _reachable_fms(
    pair: PairSpec,
    fbars: dict[str, float],
    k_set: tuple[int, ...],
    gate_types: tuple[GateType, ...],
    max_fm_mhz: float | None = None,
) -> dict[tuple[GateType, int], float]:
    """Modulation frequency (MHz) of every reachable (gate type, k) resonance,
    given the average frequency of each ladder the gate types use."""
    out: dict[tuple[GateType, int], float] = {}
    for gt in gate_types:
        target = _target_freq_ghz(pair, gt)
        fbar = fbars[gt.ladder_channel]
        for k in k_set:
            if k == 0:
                continue
            fm_ghz = (target - fbar) / k
            if fm_ghz <= 0.0:
                continue
            fm = fm_ghz * 1e3
            if max_fm_mhz is not None and fm > max_fm_mhz:
                continue
            out[(gt, k)] = fm
    return out


def resonance_fm(
    pair: PairSpec,
    point: OperatingPoint,
    gate_type: GateType,
    k: int,
) -> float:
    """Modulation frequency (MHz) that parks sideband k on the gate target.

    Solves f_ladder + k * fm = f_target for fm.  The modulated qubit sits
    above its neighbor target on the relevant ladder in all supported
    layouts, so activating sidebands have k < 0; a request whose solution
    comes out nonpositive cannot be reached from this operating point and
    raises WrongSideband.
    """
    if k == 0:
        raise ValidationError("sideband order k must be nonzero")
    channel = gate_type.ladder_channel
    fbar = _ladder_fbar_ghz(pair, point, channel)
    fm = _reachable_fms(pair, {channel: fbar}, (k,), (gate_type,)).get((gate_type, k))
    if fm is None:
        raise WrongSideband(
            f"sideband k={k} cannot reach the {gate_type.value} target from "
            f"fbar={fbar:.4f} GHz"
        )
    return fm


def enumerate_resonances(
    pair: PairSpec,
    point: OperatingPoint,
    k_set: tuple[int, ...] = _K_SET,
    gate_types: tuple[GateType, ...] = _GATE_TYPES,
    max_fm_mhz: float | None = None,
) -> dict[tuple[GateType, int], float]:
    """All reachable gate resonances from one operating point.

    Maps (gate type, sideband order) to the required modulation frequency
    in MHz.  Unreachable combinations are omitted; an optional cap drops
    resonances beyond the drive band, which can legitimately empty the
    map.
    """
    fbars = {
        ch: _ladder_fbar_ghz(pair, point, ch)
        for ch in {gt.ladder_channel for gt in gate_types}
    }
    return _reachable_fms(pair, fbars, k_set, gate_types, max_fm_mhz)


@dataclass(frozen=True)
class CollisionReport:
    """One spectral feature too close to the planned drive.

    ``kind`` is "sideband" (a spectator sideband lands on a neighbor
    transition or TLS), "gate_resonance" (the drive frequency also
    activates another gate), or "tls" (a sideband lands on a listed
    defect).  ``freq_mhz`` is the offending feature's frequency: absolute
    for sideband/tls kinds, a modulation frequency for gate_resonance.
    """

    kind: str
    gap_mhz: float
    freq_mhz: float
    gate_type: str | None = None
    k: int | None = None
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "gap_mhz": self.gap_mhz,
            "freq_mhz": self.freq_mhz,
            "gate_type": self.gate_type,
            "k": self.k,
            "description": self.description,
        }


@dataclass(frozen=True)
class GatePlan:
    """A fully resolved parametric gate: drive settings, speed, collisions."""

    gate_type: GateType
    k: int
    pulse: BichromaticPulse
    f_bar_ghz: float
    g_eff_mhz: float
    duration_ns: float
    collisions: tuple[CollisionReport, ...] = ()

    @property
    def fm_mhz(self) -> float:
        return self.pulse.fm_mhz

    def to_dict(self) -> dict:
        return {
            "gate_type": self.gate_type.value,
            "k": self.k,
            "p": self.pulse.p,
            "alpha_rad": self.pulse.alpha_rad,
            "theta_rad": self.pulse.theta_rad,
            "phi_ac_phi0": self.pulse.phi_ac_phi0,
            "fbar_ghz": self.f_bar_ghz,
            "fm_mhz": self.fm_mhz,
            "g_eff_mhz": self.g_eff_mhz,
            "duration_ns": self.duration_ns,
            "collisions": [c.to_dict() for c in self.collisions],
        }

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text


def effective_coupling(
    pair: PairSpec, weight: complex | float, gate_type: GateType
) -> float:
    """Sideband-renormalized coupling rate in MHz.

    The bare coupling is scaled by the sideband weight magnitude; the
    two-photon CZ crossings carry an extra sqrt(2) from the matrix
    element between the second-excited manifold states.
    """
    factor = math.sqrt(2.0) if gate_type.is_cz else 1.0
    return factor * abs(weight) * pair.coupling_mhz


def gate_duration(gate_type: GateType, g_eff_mhz: float) -> float:
    """Flat-top length (ns) for a full gate at the given coupling.

    A full population exchange takes half a vacuum-Rabi period and an
    iSWAP needs only half the exchange angle; envelope rise and fall are
    budgeted separately by the caller.
    """
    if g_eff_mhz <= 0.0:
        raise ValidationError("effective coupling must be positive")
    if gate_type.is_cz:
        return 1e3 / (2.0 * g_eff_mhz)
    return 1e3 / (4.0 * g_eff_mhz)


def _spectra_for_checks(pair: PairSpec, pulse: BichromaticPulse, k_window: int):
    spans = {}
    for channel in ("f01", "f12"):
        spans[channel] = sideband_weights(
            pair.modulated, pulse, (-k_window, k_window), channel=channel
        )
    return spans


def check_collisions(
    plan: GatePlan,
    pair: PairSpec,
    tls_ghz: tuple[float, ...] = (),
    bandwidth_mhz: float = DEFAULT_BANDWIDTH_MHZ,
    k_window: int = 10,
    weight_floor: float = 1e-3,
) -> list[CollisionReport]:
    """Scan the planned drive for spectral neighbors within a bandwidth.

    Two families are checked.  First, every populated sideband of both
    modulated-qubit ladders is compared against the neighbor transitions
    and any listed TLS frequencies.  Second, every other reachable gate
    resonance is compared against the planned modulation frequency, since
    a shared drive frequency activates both processes at once; these
    resonances come from the ladder averages f_bar that the two sideband
    spectra already carry.  Sidebands whose weight magnitude is below
    ``weight_floor`` are ignored; reports are deduplicated per offender,
    keeping the smallest gap, and sorted by gap.
    """
    require_finite(
        bandwidth_mhz=bandwidth_mhz,
        **{f"tls_ghz[{i}]": f for i, f in enumerate(tls_ghz)},
    )
    if bandwidth_mhz <= 0.0:
        raise ValidationError("bandwidth must be positive")
    fm_ghz = plan.fm_mhz * 1e-3
    tls_all = tuple(pair.tls_ghz) + tuple(tls_ghz)
    spectra = _spectra_for_checks(pair, plan.pulse, k_window)
    f01n, f12n = _neighbor_freqs(pair)
    own_ladder = plan.gate_type.ladder_channel
    own_target = plan.gate_type.neighbor_channel

    targets = [("f01_n", "f01", f01n), ("f12_n", "f12", f12n)]
    targets += [(f"tls@{f:.4f}GHz", "tls", f) for f in tls_all]

    best: dict[tuple, CollisionReport] = {}

    def keep(key: tuple, report: CollisionReport) -> None:
        prev = best.get(key)
        if prev is None or abs(report.gap_mhz) < abs(prev.gap_mhz):
            best[key] = report

    for channel in ("f01", "f12"):
        spec = spectra[channel]
        for j in spec.ks:
            if abs(spec.weight(j)) < weight_floor:
                continue
            f_j = spec.f_bar_ghz + j * fm_ghz
            for label, tchan, f_t in targets:
                if channel == own_ladder and j == plan.k and tchan == own_target:
                    continue
                gap = (f_j - f_t) * 1e3
                if abs(gap) < bandwidth_mhz:
                    kind = "tls" if tchan == "tls" else "sideband"
                    keep(
                        (kind, channel, j, label),
                        CollisionReport(
                            kind=kind,
                            gap_mhz=float(gap),
                            freq_mhz=float(f_j * 1e3),
                            gate_type=None,
                            k=j,
                            description=(
                                f"{channel} ladder sideband {j:+d} within "
                                f"{abs(gap):.3f} MHz of {label}"
                            ),
                        ),
                    )

    fbars = {ch: spectra[ch].f_bar_ghz for ch in spectra}
    k_set = tuple(range(-k_window, k_window + 1))
    for (gt, kk), fm_alt in _reachable_fms(pair, fbars, k_set, _GATE_TYPES).items():
        if gt is plan.gate_type and kk == plan.k:
            continue
        if abs(spectra[gt.ladder_channel].weight(kk)) < weight_floor:
            continue
        gap = fm_alt - plan.fm_mhz
        if abs(gap) < bandwidth_mhz:
            keep(
                ("gate_resonance", gt.value, kk),
                CollisionReport(
                    kind="gate_resonance",
                    gap_mhz=float(gap),
                    freq_mhz=float(fm_alt),
                    gate_type=gt.value,
                    k=kk,
                    description=(
                        f"drive also sits {abs(gap):.3f} MHz from the "
                        f"{gt.value} k={kk:+d} resonance"
                    ),
                ),
            )

    return sorted(best.values(), key=lambda r: abs(r.gap_mhz))


def plan_gate(
    pair: PairSpec,
    point: OperatingPoint,
    gate_type: GateType,
    k: int,
    *,
    bandwidth_mhz: float = DEFAULT_BANDWIDTH_MHZ,
    k_window: int = 10,
    weight_floor: float = 1e-3,
    tls_ghz: tuple[float, ...] = (),
) -> GatePlan:
    """Resolve a gate request at a fixed operating point into a full plan.

    Picks the resonant modulation frequency, re-evaluates the sideband
    weight at that frequency (weights depend on the ratio of frequency
    excursion to modulation rate), and attaches the collision scan.
    """
    fm = resonance_fm(pair, point, gate_type, k)
    pulse = replace(point.pulse, fm_mhz=fm)
    spectrum = sideband_weights(
        pair.modulated, pulse, (-max(abs(k), k_window), max(abs(k), k_window)),
        channel=gate_type.ladder_channel,
    )
    weight = spectrum.weight(k)
    g_eff = effective_coupling(pair, weight, gate_type)
    plan = GatePlan(
        gate_type=gate_type,
        k=k,
        pulse=pulse,
        f_bar_ghz=point.f_bar_ghz,
        g_eff_mhz=g_eff,
        duration_ns=gate_duration(gate_type, g_eff),
    )
    collisions = check_collisions(
        plan,
        pair,
        tls_ghz=tls_ghz,
        bandwidth_mhz=bandwidth_mhz,
        k_window=k_window,
        weight_floor=weight_floor,
    )
    return replace(plan, collisions=tuple(collisions))


@dataclass(frozen=True)
class ChevronMap:
    """Simulated population transfer vs modulation frequency and hold time."""

    fm_mhz: np.ndarray
    t_ns: np.ndarray
    population: np.ndarray  # shape (len(fm_mhz), len(t_ns))
    plan: GatePlan

    def fm_at_peak(self) -> float:
        i = int(np.argmax(self.population.max(axis=1)))
        return float(self.fm_mhz[i])

    def t_first_max_on_resonance(self) -> float:
        i = int(np.argmin(np.abs(self.fm_mhz - self.plan.fm_mhz)))
        j = int(np.argmax(self.population[i]))
        return float(self.t_ns[j])

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("fm_mhz,duration_ns,population\n")
            for i, fm in enumerate(self.fm_mhz):
                for j, t in enumerate(self.t_ns):
                    fh.write(f"{fm:.12g},{t:.12g},{self.population[i, j]:.12g}\n")


def chevron_simulate(
    plan: GatePlan,
    fm_halfspan_mhz: float | None = None,
    n_fm: int = 41,
    t_max_ns: float | None = None,
    n_t: int = 61,
) -> ChevronMap:
    """Two-level chevron pattern around the planned resonance.

    Detuning the drive by dfm detunes the activated sideband by k * dfm,
    so the familiar Rabi chevron appears compressed in modulation
    frequency by the sideband order.  Population follows
    amp * sin^2(2 pi sqrt(g^2 + (delta/2)^2) t) with amp the usual
    Lorentzian factor; the sideband weight is held at its on-resonance
    value across the narrow frequency span.
    """
    if n_fm < 5 or n_t < 5:
        raise ValidationError("need at least a 5x5 chevron grid")
    g_ghz = plan.g_eff_mhz * 1e-3
    if fm_halfspan_mhz is None:
        fm_halfspan_mhz = 6.4 * plan.g_eff_mhz / abs(plan.k)
    if t_max_ns is None:
        t_max_ns = 2.0 * plan.duration_ns
    fm = plan.fm_mhz + np.linspace(-fm_halfspan_mhz, fm_halfspan_mhz, n_fm)
    t = np.linspace(0.0, t_max_ns, n_t)
    delta_ghz = plan.k * (fm - plan.fm_mhz) * 1e-3
    rabi = np.sqrt(g_ghz**2 + (delta_ghz / 2.0) ** 2)
    amp = g_ghz**2 / (g_ghz**2 + (delta_ghz / 2.0) ** 2)
    pop = amp[:, None] * np.sin(2.0 * np.pi * rabi[:, None] * t[None, :]) ** 2
    return ChevronMap(fm_mhz=fm, t_ns=t, population=pop, plan=plan)


def optimize_weight(
    spec: TransmonSpec,
    pair: PairSpec,
    p: int,
    k: int,
    *,
    gate_type: GateType = GateType.CZ02,
    phi_dc: float = 0.0,
    alpha_range: tuple[float, float] = (0.0, math.pi / 2.0),
    theta_range: tuple[float, float] = (-math.pi, math.pi),
    grid_shape: tuple[int, int] = (64, 64),
    window: tuple[float, float] = (0.05, 0.9),
    max_fm_mhz: float = 400.0,
    bandwidth_mhz: float = DEFAULT_BANDWIDTH_MHZ,
    k_window: int = 10,
    weight_floor: float = 1e-3,
    tls_ghz: tuple[float, ...] = (),
    refine: bool = True,
) -> GatePlan:
    """Search the control plane for the fastest collision-free gate.

    Evaluates every (alpha, theta) grid node: solve for stationary
    amplitudes, compute the requested sideband weight at each resulting
    resonance, and keep the collision-free candidate with the largest
    weight magnitude.  Ties break toward the lowest alpha, then theta
    (strict improvement required, ascending scan order).  A Nelder-Mead
    polish then refines the winning node; the polished point is kept only
    if it stays feasible.  Raises NoFeasiblePoint when no node survives
    the frequency cap and collision constraints.
    """
    require_finite(
        max_fm_mhz=max_fm_mhz,
        bandwidth_mhz=bandwidth_mhz,
        **{f"tls_ghz[{i}]": f for i, f in enumerate(tls_ghz)},
    )
    if spec != pair.modulated:
        raise ValidationError("spec must be the pair's modulated qubit")
    n_alpha, n_theta = grid_shape
    if n_alpha < 4 or n_theta < 4:
        raise ValidationError("grid must be at least 4x4")
    alphas = np.linspace(alpha_range[0], alpha_range[1], n_alpha)
    thetas = np.linspace(theta_range[0], theta_range[1], n_theta, endpoint=False)

    def evaluate(alpha: float, theta: float):
        """Best collision-unchecked candidate at one node, or None."""
        try:
            solutions = sweet_spot_solve(spec, phi_dc, p, alpha, theta, window=window)
        except NoRoot:
            return None
        best_local = None
        for amp, fbar in solutions:
            pulse = BichromaticPulse(
                fm_mhz=100.0,
                phi_ac_phi0=amp,
                alpha_rad=float(alpha),
                theta_rad=float(theta),
                p=p,
                phi_dc_phi0=phi_dc,
            )
            pt = OperatingPoint(
                pulse=pulse,
                f_bar_ghz=fbar,
                dfbar_dac_ghz_per_phi0=0.0,
                dfbar_ddc_ghz_per_phi0=0.0,
                is_sweet_spot=True,
            )
            try:
                fm = resonance_fm(pair, pt, gate_type, k)
            except WrongSideband:
                continue
            if fm > max_fm_mhz:
                continue
            resolved = replace(pulse, fm_mhz=fm)
            w = abs(
                sideband_weights(
                    spec,
                    resolved,
                    (-max(abs(k), k_window), max(abs(k), k_window)),
                    channel=gate_type.ladder_channel,
                ).weight(k)
            )
            if best_local is None or w > best_local[0]:
                best_local = (w, pt)
        return best_local

    def feasible_plan(pt: OperatingPoint) -> GatePlan | None:
        plan = plan_gate(
            pair,
            pt,
            gate_type,
            k,
            bandwidth_mhz=bandwidth_mhz,
            k_window=k_window,
            weight_floor=weight_floor,
            tls_ghz=tls_ghz,
        )
        return plan if not plan.collisions else None

    best_plan: GatePlan | None = None
    best_weight = 0.0
    best_node = None
    for alpha in alphas:
        for theta in thetas:
            cand = evaluate(float(alpha), float(theta))
            if cand is None or cand[0] <= best_weight:
                continue
            plan = feasible_plan(cand[1])
            if plan is None:
                continue
            best_weight = cand[0]
            best_plan = plan
            best_node = (float(alpha), float(theta))

    if best_plan is None:
        raise NoFeasiblePoint(
            "no collision-free operating point reaches the requested sideband "
            "under the frequency cap"
        )

    if refine:
        a_step = (alpha_range[1] - alpha_range[0]) / max(n_alpha - 1, 1)
        t_step = (theta_range[1] - theta_range[0]) / n_theta

        def objective(x: np.ndarray) -> float:
            a = float(np.clip(x[0], alpha_range[0], alpha_range[1]))
            th = float(x[1])
            cand = evaluate(a, th)
            return -cand[0] if cand is not None else 1.0

        res = minimize(
            objective,
            x0=np.array(best_node),
            method="Nelder-Mead",
            options={
                "xatol": 1e-4,
                "fatol": 1e-6,
                "initial_simplex": np.array(
                    [
                        best_node,
                        (best_node[0] + 0.5 * a_step, best_node[1]),
                        (best_node[0], best_node[1] + 0.5 * t_step),
                    ]
                ),
                "maxiter": 120,
            },
        )
        if res.fun < -best_weight:
            a = float(np.clip(res.x[0], alpha_range[0], alpha_range[1]))
            cand = evaluate(a, float(res.x[1]))
            if cand is not None and cand[0] > best_weight:
                plan = feasible_plan(cand[1])
                if plan is not None:
                    best_plan = plan
    return best_plan
