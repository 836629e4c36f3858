"""Parametric two-qubit gate planning on sideband resonances.

Modulating one qubit of a coupled pair splits its transition into
sidebands; driving the modulation at the frequency that parks a sideband
on a neighbor transition activates an exchange (iSWAP-like, via the 01
ladder) or a phase gate (CZ-like, via a 02 or 20 avoided crossing).  The
planner picks the modulation frequency for a requested gate and sideband
order, scores the effective coupling through the sideband weight, checks
every other sideband for the population it could move into a spectator
crossing or a TLS, and can search the bichromatic control plane for the
operating point that maximizes gate speed.

Surface units: couplings and modulation frequencies in MHz, durations in
ns, transition frequencies in GHz.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    NoFeasiblePoint,
    NonPositiveCoupling,
    ValidationError,
    WrongSideband,
    require_finite,
)
from .modulation import (
    SIDEBAND_TAIL,
    OperatingPoint,
    SidebandSpectrum,
    pulse_slopes,
    sideband_weights,
    sweet_spot_atlas,
)
from .pulses import BichromaticPulse
from .transmon import TransmonSpec, transition_frequencies

__all__ = [
    "GateType",
    "PairSpec",
    "GatePlan",
    "CollisionReport",
    "ChevronMap",
    "resonance_fm",
    "resonance_fm_mhz",
    "enumerate_resonances",
    "check_collisions",
    "effective_coupling",
    "gate_duration",
    "plan_gate",
    "chevron_simulate",
    "optimize_weight",
]

DEFAULT_BANDWIDTH_MHZ = 5.0

# the largest population a spectator crossing may move before it is reported;
# g^2 / (g^2 + (gap/2)^2) exceeds it exactly when |gap| < _LEAKAGE_WINDOW * g
_LEAKAGE_BUDGET = 1e-2
_LEAKAGE_WINDOW = 2.0 * math.sqrt(1.0 / _LEAKAGE_BUDGET - 1.0)

# the modulated qubit's ladders, in the order the collision scan indexes them
_LADDERS = ("f01", "f12")


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


# per gate type, in GateType order, the ladder that carries it and the
# neighbor line it meets, as indices into _LADDERS
_GATE_LADDER = np.array([_LADDERS.index(gt.ladder_channel) for gt in GateType])
_GATE_TARGET = [_LADDERS.index(gt.neighbor_channel) for gt in GateType]


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


def _ladder_fbar_ghz(pair: PairSpec, point: OperatingPoint, channel: str) -> float:
    # the point already holds the f01 average
    if channel == "f01":
        return point.f_bar_ghz
    return pulse_slopes(pair.modulated, point.pulse, channel)[0]


def resonance_fm_mhz(target_ghz, fbar_ghz, k):
    """Drive (MHz) that parks sideband k != 0 of a ladder averaging
    ``fbar_ghz`` on the line at ``target_ghz``: (target - fbar) / k, in MHz,
    and NaN where no positive drive does.  Elementwise on arrays; every
    resonance the planner and the CLI report comes from here."""
    fm = (np.asarray(target_ghz) - fbar_ghz) / k * 1e3
    return np.where(fm > 0.0, fm, np.nan)


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
    fbar = _ladder_fbar_ghz(pair, point, gate_type.ladder_channel)
    target = _neighbor_freqs(pair)[_LADDERS.index(gate_type.neighbor_channel)]
    fm = float(resonance_fm_mhz(target, fbar, k))
    if math.isnan(fm):
        raise WrongSideband(
            f"sideband k={k} cannot reach the {gate_type.value} target from "
            f"fbar={fbar:.4f} GHz"
        )
    return fm


def _check_scan(bandwidth_mhz: float, weight_floor: float) -> None:
    """Reject a non-finite or nonpositive TLS window, and a negative or
    non-finite weight floor (NaN drops nothing)."""
    require_finite(bandwidth_mhz=bandwidth_mhz)
    if bandwidth_mhz <= 0.0:
        raise ValidationError("bandwidth must be positive")
    if not 0.0 <= weight_floor < math.inf:
        raise ValidationError(f"weight_floor must be finite and >= 0, got {weight_floor!r}")


def enumerate_resonances(
    pair: PairSpec,
    point: OperatingPoint,
    k_window: int = 10,
    max_fm_mhz: float | None = None,
) -> dict[tuple[GateType, int], float]:
    """All reachable gate resonances from one operating point.

    Maps (gate type, sideband order |k| <= k_window) to the required
    modulation frequency in MHz.  Unreachable combinations are omitted; an
    optional cap drops resonances beyond the drive band, which can
    legitimately empty the map.
    """
    if not isinstance(k_window, (int, np.integer)) or k_window < 0:
        raise ValidationError(f"k_window must be an integer >= 0, got {k_window!r}")
    if max_fm_mhz is not None:
        require_finite(max_fm_mhz=max_fm_mhz)
    cap = math.inf if max_fm_mhz is None else max_fm_mhz
    fbars = {ch: _ladder_fbar_ghz(pair, point, ch) for ch in _LADDERS}
    targets = _neighbor_freqs(pair)
    ks = np.arange(-k_window, k_window + 1)
    ks = ks[ks != 0]
    out: dict[tuple[GateType, int], float] = {}
    for gt, t in zip(GateType, _GATE_TARGET):
        fms = resonance_fm_mhz(targets[t], fbars[gt.ladder_channel], ks)
        out.update(((gt, int(k)), float(fm)) for k, fm in zip(ks, fms) if fm <= cap)
    return out


@dataclass(frozen=True, slots=True)
class CollisionReport:
    """One sideband of the planned drive that reaches a spectator line.

    Sideband ``k`` of the modulated qubit's ``ladder`` sits at ``freq_mhz``
    (absolute), ``gap_mhz`` above the ``target`` line.  ``kind`` is
    "gate_resonance" on a neighbor line, where the sideband meets the
    crossing of ``gate_type`` (f01 on f01_n: iSWAP, f12 on f01_n: CZ02,
    f01 on f12_n: CZ20), and "tls" on a listed defect.  ``transfer`` is
    the most population the crossing can move, g_n^2 / (g_n^2 +
    (gap/2)^2); it is NaN for a TLS, whose coupling is unknown, and
    to_dict writes that NaN as null.  The text ``description`` is built
    from these fields when read, so a kept report holds no string of its
    own.
    """

    kind: str
    gap_mhz: float
    freq_mhz: float
    k: int
    ladder: str
    target: str
    transfer: float = math.nan
    gate_type: str | None = None

    @property
    def description(self) -> str:
        text = (
            f"{self.ladder} ladder sideband k={self.k:+d} sits "
            f"{abs(self.gap_mhz):.3f} MHz from {self.target}"
        )
        if self.kind == "tls":
            return text
        return f"{text} ({self.gate_type} k={self.k:+d} crossing), transfer={self.transfer:.3g}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "gap_mhz": self.gap_mhz,
            "freq_mhz": self.freq_mhz,
            "gate_type": self.gate_type,
            "k": self.k,
            "ladder": self.ladder,
            "target": self.target,
            "transfer": None if math.isnan(self.transfer) else self.transfer,
            "description": self.description,
        }


@dataclass(frozen=True, slots=True)
class GatePlan:
    """A fully resolved parametric gate: drive settings, speed, collisions.

    ``duration_ns`` is gate_duration of the gate type and g_eff, worked
    out when read rather than stored.
    """

    gate_type: GateType
    k: int
    pulse: BichromaticPulse
    f_bar_ghz: float
    g_eff_mhz: float
    collisions: tuple[CollisionReport, ...] = ()

    @property
    def fm_mhz(self) -> float:
        return self.pulse.fm_mhz

    @property
    def duration_ns(self) -> float:
        return gate_duration(self.gate_type, self.g_eff_mhz)

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


def check_collisions(
    plan: GatePlan,
    pair: PairSpec,
    spectra: dict[str, SidebandSpectrum],
    *,
    bandwidth_mhz: float = DEFAULT_BANDWIDTH_MHZ,
    weight_floor: float = 1e-3,
) -> list[CollisionReport]:
    """Scan the planned drive's sidebands for spectator crossings and TLS lines.

    ``spectra`` maps each modulated-qubit ladder ("f01", "f12") to its
    sideband spectrum at the planned pulse, as sideband_weights returns it
    by default and plan_gate computes it: every order but a tail certified
    below 1e-13.  A spectrum on another channel or at another modulation
    frequency is rejected, and so is one whose left-out power (Parseval:
    1 - sum |w|^2) could hold an order of weight ``weight_floor`` or more.

    Every order n with |w_n| >= ``weight_floor`` of both ladders is checked
    in one array pass, at detuning gap = f_bar + n fm - line, against the
    neighbor lines it can exchange with and the pair's TLS lines.  Order n
    of a ladder meets each neighbor line as the crossing of the gate type
    that pairs them (f01 on f01_n: iSWAP; f12 on f01_n: CZ02; f01 on f12_n:
    CZ20), an off-resonant Rabi problem with coupling g_n =
    effective_coupling(pair, w_n, gate type).  It is reported when the
    most population it can move, g_n^2 / (g_n^2 + (gap/2)^2), exceeds
    _LEAKAGE_BUDGET; the gate's own order on its own crossing is the
    drive and is skipped.  f12 on f12_n (|21>-|12>) is not scanned: the
    exchange keeps the excitation number, so no gate reaches that
    three-excitation crossing from the computational states.  A TLS has
    no known coupling, so a sideband within ``bandwidth_mhz`` of it is
    reported.  Crossings come first, largest transfer first, then TLS
    lines by gap.
    """
    _check_scan(bandwidth_mhz, weight_floor)
    for ch in _LADDERS:
        spec = spectra.get(ch)
        # Parseval: no order a spectrum leaves out weighs more than sqrt(1 - power)
        if (
            spec is None or spec.channel != ch or spec.fm_mhz != plan.fm_mhz
            or math.sqrt(max(0.0, 1.0 - spec.power_in_range)) >= weight_floor
        ):
            raise ValidationError(
                f"spectra[{ch!r}] must be the {ch} spectrum at the planned {plan.fm_mhz:.6g} "
                f"MHz drive, leaving out no order of weight >= weight_floor={weight_floor:g}"
            )
    # one row per populated order of either ladder: ladder index, order,
    # weight magnitude and sideband frequency
    mags = [np.abs(spectra[ch].weight_array) for ch in _LADDERS]
    picked = [np.flatnonzero(m >= weight_floor) for m in mags]
    counts = [i.size for i in picked]
    ladder = np.repeat((0, 1), counts)
    order = np.concatenate([i + spectra[ch].ks[0] for i, ch in zip(picked, _LADDERS)])
    weight = np.concatenate([m[i] for m, i in zip(mags, picked)])
    fbar = np.repeat([spectra[ch].f_bar_ghz for ch in _LADDERS], counts)
    f_ghz = fbar + order * (plan.fm_mhz * 1e-3)

    def report(
        kind: str, i: int, gap: float, target: str, transfer: float = math.nan,
        gate: str | None = None,
    ) -> CollisionReport:
        return CollisionReport(
            kind, float(gap), float(f_ghz[i] * 1e3), int(order[i]), _LADDERS[ladder[i]],
            target, float(transfer), gate,
        )

    # column g: gate type g's crossing, met only by the rows of its ladder
    gate_types = tuple(GateType)
    delta = (f_ghz[:, None] - np.array(_neighbor_freqs(pair))[_GATE_TARGET]) * 1e3
    g_n = weight[:, None] * [effective_coupling(pair, 1.0, gt) for gt in gate_types]
    hits = (np.abs(delta) < _LEAKAGE_WINDOW * g_n) & (ladder[:, None] == _GATE_LADDER)
    rows, cols = np.nonzero(hits)
    # 1 / (1 + r^2) with r^2 < 1 / _LEAKAGE_BUDGET: no overflow for any coupling
    transfer = 1.0 / (1.0 + np.square(delta[rows, cols] / (2.0 * g_n[rows, cols])))
    found = []
    for j in np.argsort(-transfer, kind="stable"):
        i, g = rows[j], cols[j]
        gt = gate_types[g]
        # the gate's own order on its own crossing is the drive
        if gt is not plan.gate_type or order[i] != plan.k:
            found.append(report(
                "gate_resonance", i, delta[i, g], f"{gt.neighbor_channel}_n", transfer[j], gt.value
            ))
    if pair.tls_ghz:
        gaps = (f_ghz[:, None] - np.array(pair.tls_ghz)) * 1e3
        rows, cols = np.nonzero(np.abs(gaps) < bandwidth_mhz)
        for j in np.argsort(np.abs(gaps[rows, cols]), kind="stable"):
            i, t = rows[j], cols[j]
            found.append(report("tls", i, gaps[i, t], f"tls@{pair.tls_ghz[t]:.4f}GHz"))
    return found


def plan_gate(
    pair: PairSpec,
    point: OperatingPoint,
    gate_type: GateType,
    k: int,
    *,
    bandwidth_mhz: float = DEFAULT_BANDWIDTH_MHZ,
    weight_floor: float = 1e-3,
) -> GatePlan:
    """Resolve a gate request at a fixed operating point into a full plan.

    Picks the resonant modulation frequency, computes the full sideband
    spectrum of each ladder once at that frequency (weights depend on the
    ratio of frequency excursion to modulation rate), reads the gate
    weight off its own ladder's spectrum, and attaches the collision scan
    of both spectra against the neighbor lines and the pair's TLS lines
    (check_collisions; ``bandwidth_mhz`` is its TLS window).  An order
    whose weight is at or below the spectrum's certified tail,
    SIDEBAND_TAIL, carries no resolved coupling (odd orders of a
    single-tone drive at a sweet spot cancel, for one) and raises
    WrongSideband.
    """
    fm = resonance_fm(pair, point, gate_type, k)
    pulse = replace(point.pulse, fm_mhz=fm)
    spectra = {ch: sideband_weights(pair.modulated, pulse, channel=ch) for ch in _LADDERS}
    weight = spectra[gate_type.ladder_channel].weight(k)
    if abs(weight) <= SIDEBAND_TAIL:
        raise WrongSideband(
            f"sideband k={k} weighs {abs(weight):.1e}, within the spectrum's certified "
            f"{SIDEBAND_TAIL:g} tail: it carries no {gate_type.value} coupling from this point"
        )
    g_eff = effective_coupling(pair, weight, gate_type)
    gate_duration(gate_type, g_eff)  # ValidationError unless g_eff is positive
    plan = GatePlan(
        gate_type=gate_type, k=k, pulse=pulse, f_bar_ghz=point.f_bar_ghz, g_eff_mhz=g_eff
    )
    collisions = check_collisions(
        plan, pair, spectra, bandwidth_mhz=bandwidth_mhz, weight_floor=weight_floor
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
    value across the narrow frequency span.  A given half-span must keep
    every swept modulation frequency positive, and a given hold time must
    be positive and finite.
    """
    if n_fm < 5 or n_t < 5:
        raise ValidationError("need at least a 5x5 chevron grid")
    g_ghz = plan.g_eff_mhz * 1e-3
    if fm_halfspan_mhz is None:
        fm_halfspan_mhz = 6.4 * plan.g_eff_mhz / abs(plan.k)
    elif not 0.0 < fm_halfspan_mhz < plan.fm_mhz:
        raise ValidationError(
            f"fm_halfspan_mhz must be positive and below the planned {plan.fm_mhz:.6g} MHz "
            f"drive, got {fm_halfspan_mhz!r}"
        )
    if t_max_ns is None:
        t_max_ns = 2.0 * plan.duration_ns
    elif not 0.0 < t_max_ns < math.inf:
        raise ValidationError(f"t_max_ns must be a positive finite duration, got {t_max_ns!r}")
    fm = plan.fm_mhz + np.linspace(-fm_halfspan_mhz, fm_halfspan_mhz, n_fm)
    t = np.linspace(0.0, t_max_ns, n_t)
    delta_ghz = plan.k * (fm - plan.fm_mhz) * 1e-3
    rabi = np.sqrt(g_ghz**2 + (delta_ghz / 2.0) ** 2)
    amp = g_ghz**2 / (g_ghz**2 + (delta_ghz / 2.0) ** 2)
    pop = amp[:, None] * np.sin(2.0 * np.pi * rabi[:, None] * t[None, :]) ** 2
    return ChevronMap(fm_mhz=fm, t_ns=t, population=pop, plan=plan)


def optimize_weight(
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
    weight_floor: float = 1e-3,
    refine: bool = True,
    jobs: int = 1,
) -> GatePlan:
    """Search the control plane for the fastest collision-free gate.

    Solves every (alpha, theta) grid node of the pair's modulated qubit in
    one sweet_spot_atlas call, computes the requested sideband weight at
    the resonance of each stationary amplitude, and keeps the candidate
    with the largest weight magnitude whose plan reports no collision
    (check_collisions on the pair's neighbor and TLS lines, with the given
    TLS window and weight floor); a node whose order vanishes, which
    plan_gate refuses, is skipped like a colliding one.  Ties break toward
    the lowest alpha, then theta (strict improvement required, ascending
    scan order).  A Nelder-Mead polish then refines the winning node, each
    step a one-node atlas; the polished point is kept only if it stays
    feasible.  ``jobs`` is the worker count of the grid atlas
    (sweet_spot_atlas); the one-node polish atlases stay in this process.
    Raises NoFeasiblePoint when no node survives the frequency cap and
    collision constraints.
    """
    require_finite(max_fm_mhz=max_fm_mhz)
    _check_scan(bandwidth_mhz, weight_floor)
    n_alpha, n_theta = grid_shape
    if n_alpha < 4 or n_theta < 4:
        raise ValidationError("grid must be at least 4x4")
    alphas = np.linspace(alpha_range[0], alpha_range[1], n_alpha)
    thetas = np.linspace(theta_range[0], theta_range[1], n_theta, endpoint=False)

    def best_root(points) -> tuple[float, OperatingPoint] | None:
        """Largest-weight root of one node under the frequency cap, or None."""
        best = None
        for pt in points:
            try:
                fm = resonance_fm(pair, pt, gate_type, k)
            except WrongSideband:
                continue
            if fm > max_fm_mhz:
                continue
            spectrum = sideband_weights(
                pair.modulated, replace(pt.pulse, fm_mhz=fm), (k, k),
                channel=gate_type.ladder_channel,
            )
            w = abs(spectrum.weight(k))
            if best is None or w > best[0]:
                best = (w, pt)
        return best

    def feasible_plan(pt: OperatingPoint) -> GatePlan | None:
        """The point's plan, or None where it collides or its order vanishes."""
        try:
            plan = plan_gate(
                pair, pt, gate_type, k, bandwidth_mhz=bandwidth_mhz, weight_floor=weight_floor
            )
        except WrongSideband:
            return None
        return plan if not plan.collisions else None

    best_plan: GatePlan | None = None
    best_weight = 0.0
    best_node = None
    grid = sweet_spot_atlas(pair.modulated, phi_dc, p, alphas, thetas, jobs=jobs, window=window)
    by_node = itertools.groupby(
        grid.points, key=lambda pt: (pt.pulse.alpha_rad, pt.pulse.theta_rad)
    )
    for node, points in by_node:
        cand = best_root(points)
        if cand is None or cand[0] <= best_weight:
            continue
        plan = feasible_plan(cand[1])
        if plan is None:
            continue
        best_weight = cand[0]
        best_plan = plan
        best_node = node

    if best_plan is None:
        raise NoFeasiblePoint(
            "no collision-free operating point reaches the requested sideband "
            "with a resolved weight under the frequency cap"
        )

    if refine:
        from scipy.optimize import minimize

        a_step = (alpha_range[1] - alpha_range[0]) / max(n_alpha - 1, 1)
        t_step = (theta_range[1] - theta_range[0]) / n_theta

        def evaluate(x: np.ndarray) -> tuple[float, OperatingPoint] | None:
            """best_root of the one-node atlas at (alpha, theta) = x, alpha clipped."""
            alpha = float(np.clip(x[0], alpha_range[0], alpha_range[1]))
            atlas = sweet_spot_atlas(
                pair.modulated, phi_dc, p, [alpha], [float(x[1])], window=window
            )
            return best_root(atlas.points)

        def objective(x: np.ndarray) -> float:
            cand = evaluate(x)
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
            cand = evaluate(res.x)
            if cand is not None and cand[0] > best_weight:
                plan = feasible_plan(cand[1])
                if plan is not None:
                    best_plan = plan
    return best_plan
