"""Time-averaged frequency, flux sensitivities, sweet spots, sidebands.

Under flux modulation the qubit precesses at its time-averaged transition
frequency, and the drive redistributes coupling into sidebands spaced by
the modulation frequency.  This module computes the average frequency two
independent ways (direct quadrature of the diagonalized frequency curve,
and a Bessel-function closed form built on the cosine series), locates
operating points where the average is first-order insensitive to both
flux knobs, maps such points over the control plane, and extracts the
complex sideband weights that set parametric gate speed.

Conventions: frequencies in GHz, flux in flux quanta, sensitivities in
GHz per flux quantum.  A point counts as a dynamical sweet spot when both
sensitivities are below 50 kHz per flux quantum.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import simpson
from scipy.special import jv

from .errors import (
    CutoffTooSmall,
    NoRoot,
    NumericalError,
    ValidationError,
    require_finite,
)
from .pulses import BichromaticPulse
from .transmon import FourierSeries, TransmonSpec, fourier_coefficients, transition_frequencies

__all__ = [
    "SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0",
    "Sensitivities",
    "OperatingPoint",
    "NoiseModel",
    "AtlasResult",
    "SidebandSpectrum",
    "avg_frequency_timedomain",
    "avg_frequency_bessel",
    "avg_frequency_slopes",
    "sensitivities",
    "operating_point",
    "dephasing_proxy",
    "sweet_spot_solve",
    "sweet_spot_atlas",
    "sideband_weights",
]

# 50 kHz per flux quantum, on both knobs
SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0 = 5e-5

_QUAD_NODES = 512

# Sweet-spot root finder: first and largest degree of the Chebyshev proxy
# of the phi_ac slope, the relative size of its last three coefficients
# below which it is accepted, and a cap on the Newton polish
_PROXY_DEGREE = 32
_PROXY_MAX_DEGREE = 512
_PROXY_TAIL = 1e-7
_NEWTON_MAX_STEPS = 100


def _drive(p: int, alpha: float, theta: float, nodes: int) -> np.ndarray:
    """Unit-amplitude two-tone drive on a uniform grid over one period."""
    tau = np.arange(nodes) / nodes
    return math.cos(alpha) * np.cos(2.0 * np.pi * tau) + math.sin(alpha) * np.cos(
        2.0 * np.pi * p * tau + theta
    )


def _node_series(
    coeffs: np.ndarray, phi: np.ndarray, slope: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Series value sum c_n cos(n phi) at every angle, and with ``slope``
    also sum n c_n sin(n phi), which is minus its derivative in phi.

    The n-th harmonic is accumulated with iterated complex powers of
    exp(i phi) instead of n calls to cos; sin(n phi) is the imaginary part
    of the same power.  Work stays on arrays of phi's shape.
    """
    w = np.exp(1j * phi)
    wn = w.copy()
    f = np.full(phi.shape, coeffs[0])
    g = np.zeros(phi.shape) if slope else None
    for n, c in enumerate(coeffs[1:], start=1):
        f += c * wn.real
        if slope:
            g += (n * c) * wn.imag
        wn *= w
    return f, g


def avg_frequency_slopes(
    series: FourierSeries,
    phi_dc: float,
    p: int,
    alpha_rad: float,
    theta_rad: float,
    amps: np.ndarray | Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average frequency and its two flux slopes for a batch of ac amplitudes.

    Returns (f_bar, d f_bar / d phi_ac, d f_bar / d phi_dc), each with one
    entry per amplitude, in GHz and GHz per flux quantum, from the cosine
    series.  Rectangle rule on a uniform grid of 512 nodes over one
    fundamental period, which is spectrally exact for the periodic
    integrand.  The n-th harmonic of the series is accumulated with
    iterated complex powers instead of n calls to cos, so a full amplitude
    scan costs one (amps x nodes) array pass.  The slopes are exact
    derivatives of the same quadrature, not finite differences, and come
    out of that same pass.
    """
    nodes = _QUAD_NODES
    drive = _drive(p, alpha_rad, theta_rad, nodes)
    amps = np.atleast_1d(np.asarray(amps, dtype=float))
    phi = 2.0 * np.pi * (phi_dc + np.multiply.outer(amps, drive))
    f, g = _node_series(series.as_array(), phi, slope=True)
    # d phi / d phi_ac = 2 pi drive and d phi / d phi_dc = 2 pi
    scale = -2.0 * np.pi / nodes
    return f.mean(axis=1), scale * (g @ drive), scale * g.sum(axis=1)


def avg_frequency_timedomain(
    spec: TransmonSpec,
    pulse: BichromaticPulse,
    nodes: int = 2048,
    channel: str = "f01",
) -> float:
    """Average transition frequency by direct quadrature over one period.

    Diagonalizes the Hamiltonian at every time sample and integrates with
    a composite Simpson rule.  This route never touches the cosine-series
    machinery, so it serves as an independent check on the closed form.
    """
    if nodes < 2048:
        raise ValidationError("need at least 2048 quadrature nodes")
    tau = np.linspace(0.0, 1.0, nodes + 1)
    t_ns = tau / pulse.fm_ghz
    flux = pulse.flux(t_ns)
    f01, f12 = transition_frequencies(spec, flux)
    f = {"f01": f01, "f12": f12}[channel]
    return float(simpson(f, x=tau))


def avg_frequency_bessel(
    series: FourierSeries,
    pulse: BichromaticPulse,
    m_max: int = 48,
) -> float:
    """Average frequency from the Bessel-function closed form.

    Each cosine harmonic of the frequency curve contributes a product of
    Bessel functions evaluated at the two tone amplitudes, summed over the
    phase harmonics m with weight cos(m theta).  The sum is truncated at
    ``m_max``; if the last retained term still exceeds 1 Hz the truncation
    is rejected.
    """
    if m_max < 8:
        raise ValidationError("harmonic cutoff below 8 cannot be trusted")
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
    nu = ((2.0 - (m == 0))[:, None] * phase * j1 * jp) @ coeffs
    if abs(nu[m_max]) > 1e-9:
        raise CutoffTooSmall(
            f"harmonic m={m_max} still contributes {abs(nu[m_max]):.2e} GHz; "
            "raise m_max"
        )
    return float(nu @ np.cos(m * pulse.theta_rad))


@dataclass(frozen=True)
class Sensitivities:
    """First derivatives of the average frequency w.r.t. the flux knobs."""

    dfbar_dac_ghz_per_phi0: float
    dfbar_ddc_ghz_per_phi0: float


def _pulse_slopes(
    spec: TransmonSpec, pulse: BichromaticPulse
) -> tuple[float, float, float]:
    fbar, dac, ddc = avg_frequency_slopes(
        fourier_coefficients(spec),
        pulse.phi_dc_phi0, pulse.p, pulse.alpha_rad, pulse.theta_rad, [pulse.phi_ac_phi0],
    )
    return float(fbar[0]), float(dac[0]), float(ddc[0])


def sensitivities(spec: TransmonSpec, pulse: BichromaticPulse) -> Sensitivities:
    """Flux sensitivities of the average frequency at one pulse setting."""
    _, dac, ddc = _pulse_slopes(spec, pulse)
    return Sensitivities(dac, ddc)


@dataclass(frozen=True)
class OperatingPoint:
    """A pulse setting together with its averaged-frequency response."""

    pulse: BichromaticPulse
    f_bar_ghz: float
    dfbar_dac_ghz_per_phi0: float
    dfbar_ddc_ghz_per_phi0: float
    is_sweet_spot: bool


def operating_point(
    spec: TransmonSpec,
    pulse: BichromaticPulse,
    threshold_ghz_per_phi0: float = SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0,
) -> OperatingPoint:
    """Evaluate average frequency and sensitivities, flag sweet spots.

    The flag requires both knobs below threshold; the ac stationarity
    alone is not enough when the dc bias sits off a parity-protected
    point.
    """
    fbar, dac, ddc = _pulse_slopes(spec, pulse)
    sweet = abs(dac) < threshold_ghz_per_phi0 and abs(ddc) < threshold_ghz_per_phi0
    return OperatingPoint(
        pulse=pulse,
        f_bar_ghz=fbar,
        dfbar_dac_ghz_per_phi0=dac,
        dfbar_ddc_ghz_per_phi0=ddc,
        is_sweet_spot=sweet,
    )


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


def _lobatto_amps(window: tuple[float, float], n: int, odd_only: bool) -> np.ndarray:
    """Amplitudes at the Chebyshev-Lobatto points cos(pi j / n) of the window.

    With ``odd_only`` just the odd j, the points that degree n adds to
    degree n / 2.
    """
    lo, hi = window
    j = np.arange(1, n, 2) if odd_only else np.arange(n + 1)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * j / n)


def _slope_proxy(
    slope: Callable[[np.ndarray], np.ndarray], window: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev interpolant of the phi_ac slope over the window.

    Returns its coefficients (on x in [-1, 1] across the window) and the
    Lobatto amplitudes, ascending, with the slopes it was built from.  The
    degree starts at _PROXY_DEGREE and doubles, reusing every earlier
    sample, until the last three coefficients fall below _PROXY_TAIL
    times the largest; the tail bounds the proxy's error, so a root pair
    is lost only where the slope never leaves that band between them.
    """
    n = _PROXY_DEGREE
    values = slope(_lobatto_amps(window, n, odd_only=False))
    while True:
        # values at cos(pi j / n) are a real-even sequence of period 2n
        coeffs = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / n
        coeffs[[0, n]] *= 0.5
        scale = np.max(np.abs(coeffs))
        if np.max(np.abs(coeffs[-3:])) <= _PROXY_TAIL * scale:
            # samples in increasing amplitude
            return coeffs, _lobatto_amps(window, n, odd_only=False)[::-1], values[::-1]
        if 2 * n > _PROXY_MAX_DEGREE:
            raise CutoffTooSmall(
                f"slope proxy tail {np.max(np.abs(coeffs[-3:])):.2e} GHz/Phi0 "
                f"still above {_PROXY_TAIL:.0e} of its scale at degree {n}"
            )
        merged = np.empty(2 * n + 1)
        merged[0::2] = values
        merged[1::2] = slope(_lobatto_amps(window, 2 * n, odd_only=True))
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
    zero slope is kept, as a scan would count that sample.
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
    return cand, edges[cell - 1], edges[cell], slopes[cell - 1]


def _solve(
    series: FourierSeries,
    phi_dc: float,
    p: int,
    alpha: float,
    theta: float,
    window: tuple[float, float],
    xtol: float,
) -> list[tuple[float, float, float, float]]:
    """(amplitude, f_bar, d f_bar / d phi_ac, d f_bar / d phi_dc) per root."""
    lo, hi = window

    def kernel(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return avg_frequency_slopes(series, phi_dc, p, alpha, theta, amps)

    coeffs, edges, slopes = _slope_proxy(lambda amps: kernel(amps)[1], window)
    # the negligible tail only slows the colleague-matrix eigensolve
    big = np.nonzero(np.abs(coeffs) > _PROXY_TAIL * np.max(np.abs(coeffs)))[0]
    coeffs = coeffs[: big[-1] + 1] if big.size else coeffs[:1]
    amps, a, b, s_left = _sign_change_roots(
        coeffs, edges, slopes, window, lambda amps: kernel(amps)[1]
    )
    if not amps.size:
        raise NoRoot(
            f"no stationary amplitude in [{lo}, {hi}] for alpha={alpha:.4f}, "
            f"theta={theta:.4f}"
        )

    # Newton steps on the kernel slope for all roots at once, with the
    # proxy's derivative as Jacobian.  Each kernel value shrinks its root's
    # bracket, and a step that would leave the bracket bisects it instead.
    jac_coeffs = np.polynomial.chebyshev.chebder(coeffs) * (2.0 / (hi - lo))
    for _ in range(_NEWTON_MAX_STEPS):
        fbar, dac, ddc = kernel(amps)
        left = dac * s_left > 0.0
        a, b = np.where(left, amps, a), np.where(left, b, amps)
        jac = np.polynomial.chebyshev.chebval((2.0 * amps - hi - lo) / (hi - lo), jac_coeffs)
        newton = amps - np.divide(dac, jac, out=np.full_like(dac, np.inf), where=jac != 0.0)
        step = np.where((a < newton) & (newton < b), newton, 0.5 * (a + b)) - amps
        step[dac == 0.0] = 0.0
        if np.all(np.abs(step) < 0.5 * xtol):
            return [
                (float(r), float(f), float(d), float(e))
                for r, f, d, e in zip(amps, fbar, dac, ddc)
            ]
        amps = amps + step
    raise NumericalError(
        f"sweet-spot polish did not reach xtol={xtol:g} in {_NEWTON_MAX_STEPS} steps"
    )


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
    is below ``xtol / 2``.  Returns (amplitude, average frequency) pairs in
    increasing amplitude order; raises NoRoot when the window contains
    none, which is a legitimate outcome for some mixing angles.
    """
    require_finite(phi_dc=phi_dc, alpha_rad=alpha_rad, theta_rad=theta_rad)
    if not (0.0 <= window[0] < window[1]):
        raise ValidationError("window must satisfy 0 <= lo < hi")
    roots = _solve(
        fourier_coefficients(spec),
        phi_dc, p, alpha_rad, theta_rad, window, xtol,
    )
    return [(amp, fbar) for amp, fbar, _, _ in roots]


@dataclass(frozen=True)
class AtlasResult:
    """Sweet-spot candidates over an (alpha, theta) grid."""

    points: tuple[OperatingPoint, ...]
    n_grid_nodes: int
    n_no_root: int

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


def _atlas_chunk(args: tuple) -> list[tuple[float, float, float, float, float, float]]:
    (series, phi_dc, p, alphas, thetas, window, xtol) = args
    rows = []
    for alpha in alphas:
        for theta in thetas:
            try:
                solutions = _solve(series, phi_dc, p, alpha, theta, window, xtol)
            except NoRoot:
                rows.append((alpha, theta, math.nan, math.nan, math.nan, math.nan))
                continue
            rows.extend((alpha, theta, *sol) for sol in solutions)
    return rows


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

    Every grid node is solved independently by the root finder of
    sweet_spot_solve, and f_bar and both slopes come from its last kernel
    call at each root; nodes without a root are counted, not fatal.  The
    reported operating points carry a pulse with the given modulation
    frequency, which does not affect the average frequency or the
    sensitivities.  With ``jobs > 1`` the alpha rows are distributed over
    worker processes; output ordering is independent of the job count.
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
    series = fourier_coefficients(spec)

    if jobs > 1:
        chunks = [(series, phi_dc, p, [a], thetas, window, xtol) for a in alphas]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_alpha = list(pool.map(_atlas_chunk, chunks))
        rows = [row for chunk in per_alpha for row in chunk]
    else:
        rows = _atlas_chunk((series, phi_dc, p, alphas, thetas, window, xtol))

    points: list[OperatingPoint] = []
    n_no_root = 0
    for alpha, theta, amp, fbar, dac, ddc in rows:
        if math.isnan(amp):
            n_no_root += 1
            continue
        pulse = BichromaticPulse(
            fm_mhz=fm_mhz,
            phi_ac_phi0=amp,
            alpha_rad=alpha,
            theta_rad=theta,
            p=p,
            phi_dc_phi0=phi_dc,
        )
        sweet = abs(dac) < threshold_ghz_per_phi0 and abs(ddc) < threshold_ghz_per_phi0
        points.append(
            OperatingPoint(
                pulse=pulse,
                f_bar_ghz=fbar,
                dfbar_dac_ghz_per_phi0=dac,
                dfbar_ddc_ghz_per_phi0=ddc,
                is_sweet_spot=sweet,
            )
        )
    return AtlasResult(
        points=tuple(points),
        n_grid_nodes=len(alphas) * len(thetas),
        n_no_root=n_no_root,
    )


@dataclass(frozen=True)
class SidebandSpectrum:
    """Complex sideband weights of the modulated coupling."""

    ks: tuple[int, ...]
    weights: tuple[complex, ...]
    fm_mhz: float
    f_bar_ghz: float
    channel: str

    def weight(self, k: int) -> complex:
        try:
            return self.weights[self.ks.index(k)]
        except ValueError:
            raise ValidationError(f"sideband {k} outside computed range") from None

    def frequency_ghz(self, k: int) -> float:
        """Ladder frequency of sideband k: f_bar + k * fm."""
        return self.f_bar_ghz + k * self.fm_mhz * 1e-3

    @property
    def power_in_range(self) -> float:
        return float(sum(abs(w) ** 2 for w in self.weights))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,re_eps,im_eps,abs_eps,f_k_ghz\n")
            for k, w in zip(self.ks, self.weights):
                fh.write(
                    f"{k},{w.real:.12g},{w.imag:.12g},{abs(w):.12g},"
                    f"{self.frequency_ghz(k):.12g}\n"
                )


@lru_cache(maxsize=32)
def _instantaneous_frequency(
    ej1_ghz: float,
    ej2_ghz: float,
    ec_ghz: float,
    channel: str,
    p: int,
    alpha: float,
    theta: float,
    phi_ac: float,
    phi_dc: float,
    nodes: int,
) -> np.ndarray:
    """Transition frequency (GHz) at ``nodes`` uniform times over one period.

    It depends on the pulse shape but not on the modulation frequency, so
    one profile serves every fm; the array is shared and read-only.  Keyed
    on the junction energies, so qubits that differ only in label share it.
    """
    spec = TransmonSpec(ej1_ghz=ej1_ghz, ej2_ghz=ej2_ghz, ec_ghz=ec_ghz)
    drive = _drive(p, alpha, theta, nodes)
    finst, _ = _node_series(
        fourier_coefficients(spec, channel=channel).as_array(),
        2.0 * np.pi * (phi_dc + phi_ac * drive),
        slope=False,
    )
    finst.flags.writeable = False
    return finst


def sideband_weights(
    spec: TransmonSpec,
    pulse: BichromaticPulse,
    k_range: tuple[int, int] = (-10, 10),
    *,
    channel: str = "f01",
    coupling: Callable[[np.ndarray], np.ndarray] | None = None,
    nodes: int = 4096,
) -> SidebandSpectrum:
    """Sideband weights of the coupling under the modulated phase.

    Integrates the instantaneous transition frequency into its accumulated
    phase, detrends by the average, and reads the weights off a single
    FFT over one fundamental period.  The weights over all orders satisfy
    a Parseval identity (total power one); for the quoted finite range
    the deficit is the power leaked beyond it.  The instantaneous
    frequency does not depend on the modulation frequency, so it is
    computed once per (qubit, channel, pulse shape) and reused across
    modulation frequencies.

    ``coupling`` optionally supplies a flux-dependent coupling curve; it
    is normalized to unit root-mean-square over the period so the
    Parseval identity is preserved.  Default is a constant coupling.
    """
    if nodes < 4096:
        raise ValidationError("need at least 4096 phase-integration nodes")
    klo, khi = k_range
    if klo > khi:
        raise ValidationError("k_range must be (low, high) with low <= high")
    if khi - klo + 1 > nodes // 4:
        raise ValidationError("k_range too wide for the node count")
    finst = _instantaneous_frequency(
        spec.ej1_ghz, spec.ej2_ghz, spec.ec_ghz, channel, pulse.p,
        pulse.alpha_rad, pulse.theta_rad, pulse.phi_ac_phi0, pulse.phi_dc_phi0, nodes,
    )
    cycles = finst / pulse.fm_ghz
    # trapezoid steps around the full period, including the wrap segment,
    # so the accumulated phase is exactly periodic-consistent
    dpsi = 0.5 * (cycles + np.roll(cycles, -1)) / nodes
    psi = np.concatenate(([0.0], np.cumsum(dpsi)))
    total = psi[-1]
    tau = np.arange(nodes) / nodes
    x = np.exp(2j * np.pi * (psi[:nodes] - total * tau))
    if coupling is not None:
        flux = pulse.flux(tau / pulse.fm_ghz)
        g = np.asarray(coupling(flux), dtype=float)
        if np.any(g <= 0):
            raise ValidationError("coupling curve must be positive over the pulse")
        x = x * (g / math.sqrt(float(np.mean(g * g))))
    eps = np.fft.fft(x) / nodes
    ks = tuple(range(klo, khi + 1))
    weights = tuple(complex(eps[k % nodes]) for k in ks)
    return SidebandSpectrum(
        ks=ks,
        weights=weights,
        fm_mhz=pulse.fm_mhz,
        f_bar_ghz=float(total * pulse.fm_ghz),
        channel=channel,
    )
