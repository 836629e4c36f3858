"""Time-averaged frequency, flux sensitivities, sweet spots, sidebands.

Under flux modulation the qubit precesses at its time-averaged transition
frequency, and the drive redistributes coupling into sidebands spaced by
the modulation frequency.  This module computes the average frequency by
quadrature of each ladder's Chebyshev flux curve (the kernel every solver
and the calibration use), checks it two independent ways (quadrature of
the diagonalized frequency itself, and a Bessel-function closed form built
on the cosine series), locates operating points where the average is
first-order insensitive to both flux knobs, maps such points over the
control plane, and extracts the complex sideband weights that set
parametric gate speed.

Conventions: frequencies in GHz, flux in flux quanta, sensitivities in
GHz per flux quantum.  A point counts as a dynamical sweet spot when both
sensitivities are below 50 kHz per flux quantum.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .numerics import bracketed_newton, lobatto_coefficients, lobatto_points
from .errors import (
    CutoffTooSmall,
    NoRoot,
    ValidationError,
    require_finite,
)
from .pulses import BichromaticPulse
from .transmon import (
    FourierSeries,
    LadderCurve,
    TransmonSpec,
    ladder_curve,
    transition_frequencies,
)

__all__ = [
    "SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0",
    "SIDEBAND_TAIL",
    "OperatingPoint",
    "NoiseModel",
    "AtlasResult",
    "SidebandSpectrum",
    "avg_frequency_timedomain",
    "avg_frequency_harmonics",
    "avg_frequency_bessel",
    "avg_frequency_slopes",
    "first_phase_harmonic",
    "pulse_slopes",
    "operating_point",
    "dephasing_proxy",
    "sweet_spot_solve",
    "sweet_spot_atlas",
    "sideband_weights",
]

# 50 kHz per flux quantum, on both knobs
SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0 = 5e-5

# Averaging quadrature: fewest and most nodes per period, and the bounds on
# the aliasing error of f_bar (GHz) and of both slopes (GHz per flux
# quantum) that pick the count in between
_QUAD_NODES = 32
_MAX_QUAD_NODES = 1 << 15
_ALIAS_TOL = 1e-11
_SLOPE_ALIAS_TOL = 1e-9

# Averaging kernel: most (amplitude, node) elements summed in one block, so
# a 33-amplitude proxy call at 512 nodes is one block, and the per-thread
# buffers that every block reuses
_BLOCK_ELEMENTS = 1 << 15
_workspace = threading.local()

# Sweet-spot root finder: first and largest degree of the Chebyshev proxy
# of the phi_ac slope, the relative size of its last three coefficients
# below which it is accepted, and a cap on the Newton polish
_PROXY_DEGREE = 32
_PROXY_MAX_DEGREE = 512
_PROXY_TAIL = 1e-7
_NEWTON_MAX_STEPS = 100

# Sideband spectra: fewest and most nodes per period, and the largest weight
# allowed in the top quarter of the resolved orders; a weight at or below it
# is not told apart from the aliased tail, and plan_gate refuses its order
_SPECTRUM_NODES = 256
_MAX_SPECTRUM_NODES = 1 << 16
SIDEBAND_TAIL = 1e-13

# First theta-harmonic of f_bar: fewest and most uniform phases per period,
# and the largest harmonic (GHz) allowed in the top quarter of the resolved ones
_PHASE_SAMPLES = 64
_MAX_PHASE_SAMPLES = 1 << 10
_PHASE_TAIL = 1e-10


def _drive_rows(p: int, alpha: float, thetas: np.ndarray, nodes: int, out: np.ndarray) -> None:
    """Unit-amplitude two-tone drive on a uniform grid over one period, one
    row per relative phase of ``thetas``, written into ``out``."""
    tau = np.arange(nodes) / nodes
    np.add.outer(thetas, 2.0 * np.pi * p * tau, out=out)
    np.cos(out, out=out)
    out *= math.sin(alpha)
    out += math.cos(alpha) * np.cos(2.0 * np.pi * tau)


@lru_cache(maxsize=32)
def _drive(p: int, alpha: float, theta: float, nodes: int) -> np.ndarray:
    """The drive of _drive_rows at one relative phase.

    Cached, since a solve or a plan evaluates one pulse shape many times;
    the array is shared and read-only.
    """
    drive = np.empty((1, nodes))
    _drive_rows(p, alpha, np.array([theta]), nodes, drive)
    drive.flags.writeable = False
    return drive[0]


def _fill_drives(
    out: np.ndarray, p: int, alpha: float, phases: np.ndarray, pick: np.ndarray | None,
    buffer: np.ndarray,
) -> None:
    """Write the drive of _drive_rows into each row of ``out``: at phases[i]
    in row i when ``pick`` is None, else at phases[pick[i]], taken from a
    table of one row per phase built in ``buffer``."""
    nodes = out.shape[1]
    if pick is None:
        _drive_rows(p, alpha, phases, nodes, out)
        return
    table = buffer[: phases.size * nodes].reshape(phases.size, nodes)
    _drive_rows(p, alpha, phases, nodes, table)
    np.take(table, pick, axis=0, out=out)


@lru_cache(maxsize=256)
def _bandwidth_limits(curve: LadderCurve, p: int, fewest: int, most: int) -> np.ndarray:
    """Largest Carson bandwidth per harmonic that each node count
    fewest, 2 fewest, ..., most certifies, ascending; -1 where none does.

    Harmonic n of the curve's cosine series, c_n cos(2 pi n flux), under a
    drive of Carson bandwidth b = 2 pi amp (|cos alpha| + p |sin alpha|)
    has Fourier coefficients in time that a Cauchy estimate on the strip
    |Im tau| <= s / (2 pi p) bounds by exp(n b sinh(s) / p - k s / p) at
    order k; minimized over s this is exp(-g / p) with
    g = k acosh(k / (n b)) - sqrt(k^2 - (n b)^2) for k > n b, else 0.  The
    rectangle rule on N points misses the orders +-N, so f_bar aliases by
    at most 2 sum_n |c_n| exp(-g(n b, N) / p).  The phi_dc slope weighs
    harmonic n by 2 pi n |c_n|; the phi_ac slope also multiplies by the
    drive, whose two tones (|drive| <= sqrt 2) shift orders by up to p, so
    its bound is sqrt 2 times that sum taken at order N - p, and no N <= p
    is certified.  That bound is never below the phi_dc slope's, whose
    terms decay no slower at the higher order N, so it certifies both
    slopes.  Each bound increases in b, so the limit of every count at
    once (f_bar within _ALIAS_TOL, both slopes within _SLOPE_ALIAS_TOL)
    comes from one vectorized bisection per (curve, p).
    """
    mags = curve.harmonics
    n = np.arange(1, mags.size + 1)
    nodes = fewest << np.arange(max(1, int(most // fewest).bit_length()))
    # orders N and N - p, and the bounds' harmonic weights over their
    # tolerances: f_bar at N, the phi_ac slope at N - p; an order below 1
    # certifies nothing and is raised to 1 only to keep the bisection finite
    orders = np.stack([nodes, nodes - p]).astype(float)
    certifiable = orders[1] > 0
    orders = np.maximum(orders, 1.0)[:, :, None]
    squares, exponents = orders * orders, orders / p
    at_n = mags / _ALIAS_TOL
    at_n_minus_p = math.sqrt(2.0) * (2.0 * np.pi * n * mags / _SLOPE_ALIAS_TOL)

    def aliased(b: np.ndarray) -> np.ndarray:
        beta = np.minimum(n * b[:, None], orders)
        root = np.sqrt(squares - beta * beta)
        # exp(-g / p), with acosh(k / beta) = log((k + root) / beta)
        decay = np.exp(root / p - exponents * np.log((orders + root) / beta))
        worst = np.maximum(decay[0] @ at_n, decay[1] @ at_n_minus_p)
        return 2.0 * worst > 1.0

    # 32 halvings leave the limit within nodes / 4e9 below its exact value
    lo, hi = np.zeros(nodes.size), nodes.astype(float)
    for _ in range(32):
        mid = 0.5 * (lo + hi)
        over = aliased(mid)
        lo, hi = np.where(over, lo, mid), np.where(over, mid, hi)
    return np.where(certifiable, lo, -1.0)


def _quadrature_nodes(
    curve: LadderCurve, p: int, alpha: float, amps: np.ndarray | float
) -> np.ndarray:
    """Nodes per period for the average at each amplitude: the fewest
    power-of-two multiple of _QUAD_NODES whose aliasing bound
    (_bandwidth_limits) at that amplitude holds f_bar within 1e-11 GHz and
    both slopes within 1e-9 GHz per flux quantum; CutoffTooSmall past
    _MAX_QUAD_NODES."""
    if p < 1:
        raise ValidationError("tone multiplier p must be an integer >= 1")
    amps = np.abs(np.asarray(amps, dtype=float))
    top = float(amps.max(initial=0.0))
    require_finite(amplitude=top)
    spread = abs(math.cos(alpha)) + p * abs(math.sin(alpha))
    limits = _bandwidth_limits(curve, p, _QUAD_NODES, _MAX_QUAD_NODES)
    if 2.0 * np.pi * top * spread > limits[-1]:
        raise CutoffTooSmall(
            f"averaging needs more than {_MAX_QUAD_NODES} nodes per period "
            f"at p={p}, amplitude {top:g}"
        )
    bandwidth = amps * (2.0 * np.pi)
    bandwidth *= spread
    return _QUAD_NODES << limits.searchsorted(bandwidth)


def _block_buffers(size: int) -> list[np.ndarray]:
    """This thread's nine flat kernel buffers of ``size`` elements or more,
    kept across calls and regrown only when a larger block needs them.

    The nine are rows of one allocation, so a regrown workspace hands its
    old memory back whole instead of leaving nine holes in the heap.
    """
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or buffers[0].size < size:
        buffers = _workspace.buffers = list(np.empty((9, size)))
    return buffers


def avg_frequency_slopes(
    curve: LadderCurve,
    phi_dc: float,
    p: int,
    alpha_rad: float,
    theta_rad: float | np.ndarray | Sequence[float],
    amps: np.ndarray | Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average frequency and its two flux slopes for a batch of ac amplitudes.

    Returns (f_bar, d f_bar / d phi_ac, d f_bar / d phi_dc), each with one
    entry per amplitude, in GHz and GHz per flux quantum, for the ladder
    of ``curve`` (ladder_curve).  ``theta_rad`` is one relative phase for
    the batch or one per amplitude.  Rectangle rule on a uniform grid over
    one fundamental period, spectrally exact for the periodic integrand.
    Each amplitude is summed at its own node count: the fewest power of two
    from 32 up whose a-priori aliasing bound at that amplitude holds f_bar
    within 1e-11 GHz and both slopes within 1e-9 GHz per flux quantum
    (CutoffTooSmall past 32768); a count at or below p is never certified.
    No entry depends on what else is in its batch: f_bar and the phi_dc
    slope are bit-identical to a call with that amplitude alone, and the
    phi_ac slope agrees to round-off.

    The amplitudes, sorted by count, lie row after row in blocks of at
    most 32768 (amplitude, node) elements (or one row), in flat buffers
    that each thread keeps across calls: a warm call allocates no
    amplitude x node array, only per-amplitude results.  The curve and its
    flux slope are summed over a whole block at once by Clenshaw
    recurrence, whatever counts it mixes.  A run of one count takes its
    drive from the cached row of its one phase, or from one row per
    distinct phase when phases repeat.  The slopes are exact derivatives
    of the same quadrature, not finite differences.
    """
    amps = np.atleast_1d(np.asarray(amps, dtype=float))
    thetas = np.asarray(theta_rad, dtype=float)
    per_row = thetas.ndim > 0
    if per_row and thetas.shape != amps.shape:
        raise ValidationError("theta_rad must be one phase or one per amplitude")
    counts = _quadrature_nodes(curve, p, alpha_rad, amps)
    fbar, dac, ddc = (np.empty(amps.size) for _ in range(3))
    if not amps.size:
        return fbar, dac, ddc
    order = np.argsort(counts, kind="stable")
    ordered, ordered_amps = counts[order], amps[order]
    # element offset of the end of each sorted row, and the sorted rows
    # where a larger count starts
    ends = ordered.cumsum()
    changes = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    buffers = _block_buffers(int(min(ends[-1], max(_BLOCK_ELEMENTS, ordered[-1]))))
    # per sorted row: the sums of the curve, its flux slope, and the slope
    # times the drive over the row's nodes
    sums = np.empty((3, amps.size))
    first = 0
    while first < amps.size:
        base = int(ends[first - 1]) if first else 0
        last = max(first + 1, int(ends.searchsorted(base + _BLOCK_ELEMENTS, side="right")))
        phi, *work = (b[: int(ends[last - 1]) - base] for b in buffers)
        # runs of one count: (sorted rows lo:hi, nodes, element slice, phases,
        # row of each); rows of one phase share its cached drive, and rows
        # that repeat phases take them from a table of one row per phase
        runs, lo = [], first
        for hi in [*(i for i in changes if first < i < last), last]:
            nodes = int(ordered[lo])
            start = int(ends[lo]) - nodes - base
            if not per_row:
                phases, pick = thetas.reshape(1), None
            else:
                phases, pick = np.unique(thetas[order[lo:hi]], return_inverse=True)
                if phases.size == hi - lo:
                    phases, pick = thetas[order[lo:hi]], None
            runs.append((lo, hi, nodes, slice(start, start + (hi - lo) * nodes), phases, pick))
            lo = hi
        for lo, hi, nodes, span, phases, pick in runs:
            seg = phi[span].reshape(hi - lo, nodes)
            if phases.size == 1:
                drive = _drive(p, alpha_rad, float(phases[0]), nodes)
                np.multiply(ordered_amps[lo:hi, None], drive, out=seg)
            else:
                _fill_drives(seg, p, alpha_rad, phases, pick, work[0])
                seg *= ordered_amps[lo:hi, None]
        phi += phi_dc
        phi *= 2.0 * np.pi
        f, g = curve._phase_sums(phi, work, slope=True)
        # d phi / d phi_ac = 2 pi drive and d phi / d phi_dc = 2 pi; phi and
        # work[0] are free again, and take the drive rows back
        for lo, hi, nodes, span, phases, pick in runs:
            shape = (hi - lo, nodes)
            gs = g[span].reshape(shape)
            np.add.reduce(f[span].reshape(shape), axis=1, out=sums[0, lo:hi])
            np.add.reduce(gs, axis=1, out=sums[1, lo:hi])
            if phases.size == 1:
                np.dot(gs, _drive(p, alpha_rad, float(phases[0]), nodes), out=sums[2, lo:hi])
            else:
                seg = phi[span].reshape(shape)
                _fill_drives(seg, p, alpha_rad, phases, pick, work[0])
                np.einsum("ij,ij->i", gs, seg, out=sums[2, lo:hi])
        first = last
    scale = 2.0 * np.pi / ordered
    fbar[order] = sums[0] / ordered
    ddc[order] = sums[1] * scale
    dac[order] = sums[2] * scale
    return fbar, dac, ddc


def avg_frequency_timedomain(
    spec: TransmonSpec,
    pulse: BichromaticPulse,
    nodes: int = 2048,
    channel: str = "f01",
) -> float:
    """Average transition frequency by direct quadrature over one period.

    Diagonalizes the Hamiltonian at every time sample and integrates with
    a composite Simpson rule.  This route never touches the Chebyshev
    curve or the cosine series, so it serves as an independent check on
    both the kernel and the closed form.  Only acceptance 01, the tests
    and perfbench's answer checks use it.
    """
    from scipy.integrate import simpson

    if nodes < 2048:
        raise ValidationError("need at least 2048 quadrature nodes")
    tau = np.linspace(0.0, 1.0, nodes + 1)
    t_ns = tau / pulse.fm_ghz
    flux = pulse.flux(t_ns)
    f01, f12 = transition_frequencies(spec, flux)
    f = {"f01": f01, "f12": f12}[channel]
    return float(simpson(f, x=tau))


def avg_frequency_harmonics(
    series: FourierSeries,
    pulse: BichromaticPulse,
    m_max: int,
) -> np.ndarray:
    """Theta-harmonics of the average frequency, m = 0 .. m_max (GHz).

    Row m is the coefficient of cos(m theta) in the Bessel-function closed
    form: each cosine harmonic of the frequency curve contributes a
    product of Bessel functions evaluated at the two tone amplitudes.  The
    relative phase theta of ``pulse`` is not used.  No truncation check is
    made; avg_frequency_bessel makes it.  Only acceptance 01, the tests and
    perfbench's answer checks use it; calibration takes the sign of row 1
    from the kernel (first_phase_harmonic).
    """
    from scipy.special import jv

    coeffs = series.as_array()
    n = np.arange(coeffs.size)
    a1 = 2.0 * np.pi * pulse.amp_fundamental_phi0
    ap = 2.0 * np.pi * pulse.amp_multiple_phi0
    m = np.arange(m_max + 1)
    phase = np.cos(
        2.0 * np.pi * pulse.phi_dc_phi0 * n[None, :]
        + (pulse.p + 1) * m[:, None] * (np.pi / 2.0)
    )
    j1 = jv(pulse.p * m[:, None], n[None, :] * a1)
    jp = jv(m[:, None], n[None, :] * ap)
    return ((2.0 - (m == 0))[:, None] * phase * j1 * jp) @ coeffs


def avg_frequency_bessel(
    series: FourierSeries,
    pulse: BichromaticPulse,
    m_max: int = 48,
) -> float:
    """Average frequency from the Bessel-function closed form.

    Sums the theta-harmonics of avg_frequency_harmonics with weight
    cos(m theta).  The sum is truncated at ``m_max``; if the last retained
    term still exceeds 1 Hz the truncation is rejected.  Only acceptance
    01, the tests and perfbench's answer checks use it.
    """
    if m_max < 8:
        raise ValidationError("harmonic cutoff below 8 cannot be trusted")
    nu = avg_frequency_harmonics(series, pulse, m_max)
    m = np.arange(m_max + 1)
    if abs(nu[m_max]) > 1e-9:
        raise CutoffTooSmall(
            f"harmonic m={m_max} still contributes {abs(nu[m_max]):.2e} GHz; "
            "raise m_max"
        )
    return float(nu @ np.cos(m * pulse.theta_rad))


def first_phase_harmonic(spec: TransmonSpec, pulse: BichromaticPulse) -> float:
    """First theta-harmonic nu_1 of the f01 average frequency at ``pulse`` (GHz):
    the coefficient of cos(theta) in f_bar over the relative phase.

    Time reversal maps the drive at theta to the drive at -theta, so f_bar
    is even in theta and nu_1 is its cos(theta) projection over M uniform
    phases.  One batched kernel call gives f_bar at the M/2 + 1 of them in
    [0, pi], mirrored to the full period.  M starts at 64 and doubles, with
    one more call at the new phases only, while a harmonic in the top
    quarter of the resolved ones (M/4 <= m <= M/2) exceeds 1e-10 GHz; the
    orders that alias onto m = 1 (M - 1, M + 1, ...) lie past that quarter.
    CutoffTooSmall past 1024 phases.  The pulse's own theta is not used.
    """
    args = (ladder_curve(spec), pulse.phi_dc_phi0, pulse.p, pulse.alpha_rad)

    def fbar(thetas: np.ndarray) -> np.ndarray:
        return avg_frequency_slopes(*args, thetas, np.full(thetas.size, pulse.phi_ac_phi0))[0]

    samples = _PHASE_SAMPLES
    half = fbar(np.arange(samples // 2 + 1) * (2.0 * np.pi / samples))
    while True:
        nu = 2.0 * np.fft.rfft(np.concatenate([half, half[-2:0:-1]])).real / samples
        if np.max(np.abs(nu[samples // 4 :])) <= _PHASE_TAIL:
            return float(nu[1])
        if samples >= _MAX_PHASE_SAMPLES:
            raise CutoffTooSmall(
                f"theta-harmonics of f_bar need more than {_MAX_PHASE_SAMPLES} phases "
                f"at p={pulse.p}, amplitude {pulse.phi_ac_phi0:g}"
            )
        # the doubled grid's new phases fall midway between the old ones
        mids = fbar((np.arange(samples // 2) + 0.5) * (2.0 * np.pi / samples))
        half = np.insert(half, np.arange(1, half.size), mids)
        samples *= 2


def pulse_slopes(
    spec: TransmonSpec, pulse: BichromaticPulse, channel: str = "f01"
) -> tuple[float, float, float]:
    """(f_bar, d f_bar / d phi_ac, d f_bar / d phi_dc) of one pulse on one
    ladder: avg_frequency_slopes at the pulse's amplitude."""
    fbar, dac, ddc = avg_frequency_slopes(
        ladder_curve(spec, channel),
        pulse.phi_dc_phi0, pulse.p, pulse.alpha_rad, pulse.theta_rad, [pulse.phi_ac_phi0],
    )
    return float(fbar[0]), float(dac[0]), float(ddc[0])


@dataclass(frozen=True, slots=True)
class OperatingPoint:
    """A pulse setting together with its averaged-frequency response."""

    pulse: BichromaticPulse
    f_bar_ghz: float
    dfbar_dac_ghz_per_phi0: float
    dfbar_ddc_ghz_per_phi0: float
    is_sweet_spot: bool


def _point(
    pulse: BichromaticPulse, fbar: float, dac: float, ddc: float, threshold: float
) -> OperatingPoint:
    """The operating point of a pulse, flagged a sweet spot when both
    sensitivities are below threshold; the ac stationarity alone is not
    enough when the dc bias sits off a parity-protected point."""
    sweet = abs(dac) < threshold and abs(ddc) < threshold
    return OperatingPoint(
        pulse=pulse,
        f_bar_ghz=fbar,
        dfbar_dac_ghz_per_phi0=dac,
        dfbar_ddc_ghz_per_phi0=ddc,
        is_sweet_spot=sweet,
    )


def operating_point(
    spec: TransmonSpec,
    pulse: BichromaticPulse,
    threshold_ghz_per_phi0: float = SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0,
) -> OperatingPoint:
    """Evaluate average frequency and sensitivities, flag sweet spots."""
    return _point(pulse, *pulse_slopes(spec, pulse), threshold_ghz_per_phi0)


@dataclass(frozen=True)
class NoiseModel:
    """Relative strengths of additive dc and multiplicative ac flux noise."""

    a_dc: float = 1.0
    a_ac: float = 1.0


def dephasing_proxy(point: OperatingPoint, noise: NoiseModel = NoiseModel()) -> float:
    """Relative first-order dephasing rate driven by slow flux noise.

    Quadrature sum of the two sensitivities weighted by the noise
    amplitudes.  Only ratios between operating points are meaningful; the
    absolute scale of the noise amplitudes is not calibrated.
    """
    return math.hypot(
        noise.a_dc * point.dfbar_ddc_ghz_per_phi0,
        noise.a_ac * point.dfbar_dac_ghz_per_phi0,
    )


def _slope_proxies(
    slope: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rows: int,
    window: tuple[float, float],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Chebyshev interpolants of the phi_ac slope over the window, one per row.

    ``slope(row, amps)`` is the kernel slope of row ``row[i]`` at
    ``amps[i]``.  Returns per row its coefficients (on x in [-1, 1] across
    the window) and the Lobatto amplitudes, ascending, with the slopes it
    was built from.  The degree starts at _PROXY_DEGREE for every row in
    one call.  A row doubles its degree, reusing every earlier sample, only
    while its own last three coefficients exceed _PROXY_TAIL times its
    largest, and one call samples the new points of every row still
    pending; CutoffTooSmall past _PROXY_MAX_DEGREE.  The tail bounds the
    proxy's error, so a root pair is lost only where the slope never leaves
    that band between them.
    """
    lo, hi = window

    def amps(x: np.ndarray) -> np.ndarray:
        return 0.5 * (hi + lo) + 0.5 * (hi - lo) * x

    def sample(pending: np.ndarray, x: np.ndarray) -> np.ndarray:
        values = slope(np.repeat(pending, x.size), np.tile(amps(x), pending.size))
        return values.reshape(pending.size, x.size)

    n, pending = _PROXY_DEGREE, np.arange(rows)
    values = sample(pending, lobatto_points(n))
    proxies: list = [None] * rows
    while True:
        coeffs = lobatto_coefficients(values)
        tail = np.max(np.abs(coeffs[:, -3:]), axis=1)
        limit = _PROXY_TAIL * np.max(np.abs(coeffs), axis=1)
        settled = tail <= limit
        # samples in increasing amplitude
        edges = amps(lobatto_points(n))[::-1]
        for i in np.flatnonzero(settled):
            proxies[pending[i]] = (coeffs[i], edges, values[i, ::-1])
        if settled.all():
            return proxies
        if 2 * n > _PROXY_MAX_DEGREE:
            i = int(np.argmin(settled))
            raise CutoffTooSmall(
                f"slope proxy: Chebyshev tail {tail[i]:.2e} still above {limit[i]:.2e} "
                f"at degree {n}"
            )
        pending, values = pending[~settled], values[~settled]
        merged = np.empty((pending.size, 2 * n + 1))
        merged[:, 0::2] = values
        merged[:, 1::2] = sample(pending, lobatto_points(2 * n, odd_only=True))
        values, n = merged, 2 * n


def _sign_change_roots(
    coeffs: np.ndarray,
    edges: np.ndarray,
    slopes: np.ndarray,
    window: tuple[float, float],
    slope: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, ...]:
    """Proxy roots across which the kernel's own slope changes sign.

    Returns each root with its bracket (left, right) and the kernel slope
    at its left end.  The brackets are the cells between the ascending
    Lobatto samples ``edges``; a cell holding several proxy roots is split
    at the midpoints between them, which costs the only extra kernel call.
    A proxy root whose bracket shows no sign change (a tangency, or an
    artefact of the proxy) is dropped; one whose bracket ends on an exactly
    zero slope is kept, as a scan would count that sample.  A sampled sign
    change left without a proxy root (one that fell just past a sample)
    adds its cell's midpoint.
    """
    lo, hi = window
    x = np.polynomial.chebyshev.chebroots(coeffs) if coeffs.size > 1 else np.empty(0)
    x = np.unique(x.real[(x.imag == 0.0) & (np.abs(x.real) <= 1.0)])
    cand = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    cell = np.searchsorted(edges, cand)
    mids = 0.5 * (cand[1:] + cand[:-1])[cell[1:] == cell[:-1]]
    if mids.size:
        edges = np.concatenate([edges, mids])
        slopes = np.concatenate([slopes, slope(mids)])
        order = np.argsort(edges)
        edges, slopes = edges[order], slopes[order]
        cell = np.searchsorted(edges, cand)
    inside = (cell > 0) & (cell < edges.size)
    cand, cell = cand[inside], cell[inside]
    crossing = slopes[cell - 1] * slopes[cell] <= 0.0
    cand, cell = cand[crossing], cell[crossing]
    start = 0.5 * (edges[:-1] + edges[1:])
    start[cell - 1] = cand
    keep = slopes[:-1] * slopes[1:] < 0.0
    keep[cell - 1] = True
    cell = np.flatnonzero(keep) + 1
    return start[cell - 1], edges[cell - 1], edges[cell], slopes[cell - 1]


def _solve_row(
    curve: LadderCurve,
    phi_dc: float,
    p: int,
    alpha: float,
    thetas: Sequence[float],
    window: tuple[float, float],
    xtol: float,
) -> list[np.ndarray]:
    """Roots of the nodes (alpha, theta) of one grid row, solved together.

    Returns per theta an array of rows (amplitude, f_bar, d f_bar / d
    phi_ac, d f_bar / d phi_dc), empty where the window holds no root.
    Every node gets its own proxy (_slope_proxies), roots
    (_sign_change_roots) and polish, and the kernel calls are shared:
    one for every proxy's first samples, one per doubling of the nodes
    still pending, and one per Newton step on every root of the row, each
    node stopping at its own step.  As each kernel entry does not depend
    on its batch, a node's roots are the ones it would get alone.
    """
    lo, hi = window
    thetas = np.asarray(thetas, dtype=float)

    def phases(row: np.ndarray) -> np.ndarray | float:
        # a row of one node passes its one phase, the kernel's cheapest path
        return thetas[row] if thetas.size > 1 else float(thetas[0])

    def slope(row: np.ndarray, amps: np.ndarray) -> np.ndarray:
        return avg_frequency_slopes(curve, phi_dc, p, alpha, phases(row), amps)[1]

    found = []
    for i, (coeffs, edges, slopes) in enumerate(_slope_proxies(slope, thetas.size, window)):
        # the negligible tail only slows the colleague-matrix eigensolve
        big = np.nonzero(np.abs(coeffs) > _PROXY_TAIL * np.max(np.abs(coeffs)))[0]
        coeffs = coeffs[: big[-1] + 1] if big.size else coeffs[:1]
        roots = _sign_change_roots(
            coeffs, edges, slopes, window, lambda a, i=i: slope(np.full(a.size, i), a)
        )
        found.append((roots, np.polynomial.chebyshev.chebder(coeffs) * (2.0 / (hi - lo))))
    node = np.concatenate([np.full(roots[0].size, i) for i, (roots, _) in enumerate(found)])
    if not node.size:
        return [np.empty((0, 4))] * thetas.size

    # Newton steps on the kernel slope for all roots at once, with each
    # node's proxy derivative (one zero-padded column per root) as
    # Jacobian; f_bar and both slopes come from the last kernel call, at
    # the root each node kept
    start, a, b, s_left = (np.concatenate([roots[k] for roots, _ in found]) for k in range(4))
    jac_coeffs = np.zeros((max(d.size for _, d in found), node.size))
    for i, (_, d) in enumerate(found):
        jac_coeffs[: d.size, node == i] = d[:, None]

    def evaluate(amps: np.ndarray) -> tuple[np.ndarray, ...]:
        fbar, dac, ddc = avg_frequency_slopes(curve, phi_dc, p, alpha, phases(node), amps)
        jac = np.polynomial.chebyshev.chebval(
            (2.0 * amps - hi - lo) / (hi - lo), jac_coeffs, tensor=False
        )
        return dac, jac, fbar, dac, ddc

    amps, extra = bracketed_newton(
        evaluate, start, a, b, s_left, 0.5 * xtol,
        what="sweet-spot polish", max_steps=_NEWTON_MAX_STEPS, groups=node,
    )
    table = np.column_stack((amps, *extra))
    return [table[node == i] for i in range(thetas.size)]


def _check_window(window: tuple[float, float]) -> None:
    if not (0.0 <= window[0] < window[1]):
        raise ValidationError("window must satisfy 0 <= lo < hi")


def sweet_spot_solve(
    spec: TransmonSpec,
    phi_dc: float,
    p: int,
    alpha_rad: float,
    theta_rad: float,
    window: tuple[float, float] = (0.05, 0.9),
    xtol: float = 1e-6,
) -> list[tuple[float, float]]:
    """Amplitudes where the average frequency is stationary in the ac knob.

    Interpolates the exact ac slope across the window by a Chebyshev proxy
    from one batched kernel call at 33 Chebyshev-Lobatto amplitudes,
    doubling the degree (up to 512, else CutoffTooSmall) until its last
    coefficients are below 1e-7 of its scale.  The proxy's real roots,
    eigenvalues of its colleague matrix, are kept where the kernel's own
    slope changes sign across them, so a tangency is not a root.  Newton
    steps on the kernel then polish all roots together until every step
    is below ``xtol / 2``.  This is the row engine of sweet_spot_atlas on
    a row of one node.  Returns (amplitude, average frequency) pairs in
    increasing amplitude order; raises NoRoot when the window contains
    none, which is a legitimate outcome for some mixing angles.
    """
    require_finite(phi_dc=phi_dc, alpha_rad=alpha_rad, theta_rad=theta_rad)
    _check_window(window)
    [roots] = _solve_row(ladder_curve(spec), phi_dc, p, alpha_rad, [theta_rad], window, xtol)
    if not roots.size:
        raise NoRoot(
            f"no stationary amplitude in [{window[0]}, {window[1]}] for "
            f"alpha={alpha_rad:.4f}, theta={theta_rad:.4f}"
        )
    return [(amp, fbar) for amp, fbar in roots[:, :2].tolist()]


@dataclass(frozen=True, eq=False, slots=True)
class AtlasResult:
    """Sweet-spot candidates over an (alpha, theta) grid.

    ``table`` holds one read-only row per stationary amplitude, in grid
    order (alpha, then theta, then amplitude): alpha, theta, amplitude,
    f_bar and the phi_ac and phi_dc slopes.  ``points`` builds their
    operating points when read: pulses at the atlas's p, dc bias and
    modulation frequency, flagged against its threshold.  Two results are
    equal when their points and counts are.
    """

    table: np.ndarray
    p: int
    phi_dc_phi0: float
    fm_mhz: float
    threshold_ghz_per_phi0: float
    n_grid_nodes: int
    n_no_root: int

    def __post_init__(self) -> None:
        table = np.array(self.table, dtype=float)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __reduce__(self) -> tuple:
        # rebuilt through __init__, so a loaded table is read-only too
        return AtlasResult, tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtlasResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return self.n_grid_nodes, self.n_no_root, self.points

    @property
    def points(self) -> tuple[OperatingPoint, ...]:
        return tuple(
            _point(
                BichromaticPulse(
                    fm_mhz=self.fm_mhz, phi_ac_phi0=amp, alpha_rad=alpha, theta_rad=theta,
                    p=self.p, phi_dc_phi0=self.phi_dc_phi0,
                ),
                fbar, dac, ddc, self.threshold_ghz_per_phi0,
            )
            for alpha, theta, amp, fbar, dac, ddc in self.table.tolist()
        )

    @property
    def fbar_span_ghz(self) -> tuple[float, float]:
        sweet = [pt.f_bar_ghz for pt in self.points if pt.is_sweet_spot]
        if not sweet:
            return (math.nan, math.nan)
        return (min(sweet), max(sweet))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                "alpha_rad,theta_rad,phi_ac_phi0,fbar_ghz,"
                "dfdac_ghz_per_phi0,sweet_flag\n"
            )
            for pt in self.points:
                fh.write(
                    f"{pt.pulse.alpha_rad:.12g},{pt.pulse.theta_rad:.12g},"
                    f"{pt.pulse.phi_ac_phi0:.12g},{pt.f_bar_ghz:.12g},"
                    f"{pt.dfbar_dac_ghz_per_phi0:.12g},{int(pt.is_sweet_spot)}\n"
                )


def _atlas_chunk(args: tuple) -> list[list[np.ndarray]]:
    """The roots of _solve_row for each alpha row of the chunk."""
    (curve, phi_dc, p, alphas, thetas, window, xtol) = args
    return [_solve_row(curve, phi_dc, p, alpha, thetas, window, xtol) for alpha in alphas]


def sweet_spot_atlas(
    spec: TransmonSpec,
    phi_dc: float,
    p: int,
    alpha_grid: Sequence[float],
    theta_grid: Sequence[float],
    *,
    jobs: int = 1,
    fm_mhz: float = 100.0,
    window: tuple[float, float] = (0.05, 0.9),
    xtol: float = 1e-6,
    threshold_ghz_per_phi0: float = SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0,
) -> AtlasResult:
    """Locate stationary amplitudes across a grid of mixing parameters.

    Each alpha row is solved by the root finder of sweet_spot_solve for
    all its theta nodes together, in shared kernel calls, and each node
    gets the roots it would get alone; f_bar and both slopes come from its
    last kernel call at each root, and nodes without a root are counted,
    not fatal.  The answer keeps them as one table (AtlasResult), whose
    operating points carry a pulse with the given modulation frequency,
    which does not affect the average frequency or the sensitivities.
    With ``jobs > 1`` the alpha rows are distributed over min(jobs, alpha
    rows, CPU count) worker processes, and solved in this process when that
    is one.  The process pool is imported only when one starts, so no other
    path loads multiprocessing.  Output ordering is independent of the job
    count.
    """
    alphas = [float(a) for a in alpha_grid]
    thetas = [float(t) for t in theta_grid]
    if not alphas or not thetas:
        raise ValidationError("grids must be non-empty")
    require_finite(
        phi_dc=phi_dc,
        **{f"alpha_grid[{i}]": a for i, a in enumerate(alphas)},
        **{f"theta_grid[{i}]": t for i, t in enumerate(thetas)},
    )
    _check_window(window)
    # the points are built when read: refuse up front a pulse they could not hold
    for alpha in alphas:
        BichromaticPulse(
            fm_mhz=fm_mhz, phi_ac_phi0=window[0], alpha_rad=alpha, p=p, phi_dc_phi0=phi_dc
        )
    curve = ladder_curve(spec)

    # the pool starts all its workers at the first submit
    workers = min(jobs, len(alphas), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool and multiprocessing cost a fresh process
        # about 13 ms and 2 MB, and only this branch uses them
        from concurrent.futures import ProcessPoolExecutor

        chunks = [(curve, phi_dc, p, [a], thetas, window, xtol) for a in alphas]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for chunk in pool.map(_atlas_chunk, chunks) for row in chunk]
    else:
        rows = _atlas_chunk((curve, phi_dc, p, alphas, thetas, window, xtol))

    nodes = [
        (alpha, theta, roots)
        for alpha, row in zip(alphas, rows)
        for theta, roots in zip(thetas, row)
    ]
    table = np.concatenate(
        [np.column_stack((np.full((len(r), 2), (a, t)), r)) for a, t, r in nodes]
    )
    return AtlasResult(
        table=table, p=p, phi_dc_phi0=phi_dc, fm_mhz=fm_mhz,
        threshold_ghz_per_phi0=threshold_ghz_per_phi0,
        n_grid_nodes=len(nodes), n_no_root=sum(not len(r) for _, _, r in nodes),
    )


@dataclass(frozen=True, eq=False)
class SidebandSpectrum:
    """Complex sideband weights of the modulated coupling over contiguous ks.

    ``weight_array`` holds them as a read-only array; ``weights`` is the
    same values as a tuple of complex numbers.
    """

    ks: tuple[int, ...]
    weight_array: np.ndarray
    fm_mhz: float
    f_bar_ghz: float
    channel: str

    @property
    def weights(self) -> tuple[complex, ...]:
        return tuple(self.weight_array.tolist())

    def weight(self, k: int) -> complex:
        i = k - self.ks[0]
        if not 0 <= i < len(self.ks):
            raise ValidationError(f"sideband {k} outside computed range")
        return complex(self.weight_array[i])

    def frequency_ghz(self, k: int) -> float:
        """Ladder frequency of sideband k: f_bar + k * fm."""
        return self.f_bar_ghz + k * self.fm_mhz * 1e-3

    @property
    def power_in_range(self) -> float:
        return float(np.vdot(self.weight_array, self.weight_array).real)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,re_eps,im_eps,abs_eps,f_k_ghz\n")
            for k, w in zip(self.ks, self.weights):
                fh.write(
                    f"{k},{w.real:.12g},{w.imag:.12g},{abs(w):.12g},"
                    f"{self.frequency_ghz(k):.12g}\n"
                )


@lru_cache(maxsize=32)
def _periodic_phase(
    curve: LadderCurve, p: int, alpha: float, theta: float, phi_ac: float, phi_dc: float,
    nodes: int,
) -> tuple[np.ndarray, float]:
    """Periodic part of the accumulated phase of ``curve`` (GHz x periods,
    zero at the start) at ``nodes`` uniform times over one period, and f_bar.

    One rfft of the instantaneous frequency, harmonic n divided by 2 pi i n,
    and one irfft: spectrally exact, and fm-independent (cycles at fm are
    phase / fm), so the shared read-only array is cached on the curve, not
    the label, and the pulse shape.
    """
    drive = _drive(p, alpha, theta, nodes)
    finst, _ = curve.at_phase(2.0 * np.pi * (phi_dc + phi_ac * drive))
    harmonics = np.fft.rfft(finst)
    fbar = float(harmonics[0].real) / nodes
    # the mean is f_bar, and the Nyquist cosine integrates to zero on the nodes
    harmonics[0] = harmonics[-1] = 0.0
    harmonics[1:-1] /= 2j * np.pi * np.arange(1, harmonics.size - 1)
    phase = np.fft.irfft(harmonics, nodes)
    phase -= phase[0]
    phase.flags.writeable = False
    return phase, fbar


def sideband_weights(
    spec: TransmonSpec,
    pulse: BichromaticPulse,
    k_range: tuple[int, int] | None = None,
    *,
    channel: str = "f01",
) -> SidebandSpectrum:
    """Sideband weights of the coupling under the modulated phase.

    The weights of exp(2 pi i phase / fm) come off one FFT of the periodic
    phase (_periodic_phase, once per ladder curve and pulse shape) over one
    fundamental period.  The node count N starts at 256, or above four
    times the largest requested |k|, and doubles while a weight in the top
    quarter of the resolved orders (N/4 <= |k| <= N/2) exceeds 1e-13;
    CutoffTooSmall past 65536.  ``k_range`` (low, high) picks the orders
    returned, by default every order below that certified quarter,
    |k| < N/4: their power is one (Parseval), and no order left out holds
    more than the 1e-13 tail.
    """
    reach = 0 if k_range is None else max(abs(k_range[0]), abs(k_range[1]))
    if k_range is not None and k_range[0] > k_range[1]:
        raise ValidationError("k_range must be (low, high) with low <= high")
    shape = (
        ladder_curve(spec, channel), pulse.p, pulse.alpha_rad, pulse.theta_rad,
        pulse.phi_ac_phi0, pulse.phi_dc_phi0,
    )
    nodes = max(_SPECTRUM_NODES, 1 << (4 * reach).bit_length())
    while nodes <= _MAX_SPECTRUM_NODES:
        phase, fbar = _periodic_phase(*shape, nodes)
        eps = np.fft.fft(np.exp((2j * np.pi / pulse.fm_ghz) * phase)) / nodes
        if np.max(np.abs(eps[nodes // 4 : nodes - nodes // 4 + 1])) <= SIDEBAND_TAIL:
            break
        nodes *= 2
    else:
        raise CutoffTooSmall(
            f"sideband spectrum at fm {pulse.fm_mhz:g} MHz needs more than "
            f"{_MAX_SPECTRUM_NODES} nodes per period" + (f" for |k| = {reach}" if reach else "")
        )
    klo, khi = (1 - nodes // 4, nodes // 4 - 1) if k_range is None else k_range
    weights = eps[np.arange(klo, khi + 1) % nodes]
    weights.flags.writeable = False
    return SidebandSpectrum(
        ks=tuple(range(klo, khi + 1)),
        weight_array=weights,
        fm_mhz=pulse.fm_mhz,
        f_bar_ghz=fbar,
        channel=channel,
    )
