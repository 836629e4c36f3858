"""Two-tone flux pulse definitions and tone bookkeeping.

A pulse drives the SQUID flux with a fundamental at the modulation
frequency plus a second tone at an integer multiple of it.  The mixing
angle splits the total ac amplitude between the tones and the relative
phase sets their alignment.  Time is in ns, frequency surfaces in MHz,
flux in units of the flux quantum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import OutOfBand, ValidationError, require_finite

__all__ = [
    "BichromaticPulse",
    "TransferFunction",
    "wrap_angle",
    "scale_tones",
    "apply_transfer_compensation",
    "compensate_pulse",
    "distort_pulse",
]


def wrap_angle(theta_rad: float) -> float:
    """Wrap an angle to the principal interval [-pi, pi)."""
    return float((theta_rad + math.pi) % (2.0 * math.pi) - math.pi)


@dataclass(frozen=True, slots=True)
class BichromaticPulse:
    """Flux drive Phi_dc + Phi_ac [cos(a) cos(2 pi f t) + sin(a) cos(2 pi p f t + theta)].

    ``p`` is the integer frequency multiplier of the second tone.  With
    ``alpha_rad = 0`` all amplitude sits on the fundamental and the pulse
    is monochromatic regardless of p.  Peak flux excursion never exceeds
    |phi_dc| + phi_ac.
    """

    fm_mhz: float
    phi_ac_phi0: float
    alpha_rad: float = 0.0
    theta_rad: float = 0.0
    p: int = 3
    phi_dc_phi0: float = 0.0

    def __post_init__(self) -> None:
        require_finite(
            fm_mhz=self.fm_mhz,
            phi_ac_phi0=self.phi_ac_phi0,
            alpha_rad=self.alpha_rad,
            theta_rad=self.theta_rad,
            phi_dc_phi0=self.phi_dc_phi0,
        )
        if self.fm_mhz <= 0.0:
            raise ValidationError("modulation frequency must be positive")
        if self.phi_ac_phi0 < 0.0:
            raise ValidationError("ac amplitude must be nonnegative")
        if not (0.0 <= self.alpha_rad <= math.pi / 2.0 + 1e-12):
            raise ValidationError("mixing angle must lie in [0, pi/2]")
        if not (isinstance(self.p, int) and self.p >= 1):
            raise ValidationError("tone multiplier p must be an integer >= 1")

    @property
    def fm_ghz(self) -> float:
        return self.fm_mhz * 1e-3

    @property
    def amp_fundamental_phi0(self) -> float:
        return self.phi_ac_phi0 * math.cos(self.alpha_rad)

    @property
    def amp_multiple_phi0(self) -> float:
        return self.phi_ac_phi0 * math.sin(self.alpha_rad)

    def flux(self, t_ns: np.ndarray | float) -> np.ndarray | float:
        """Instantaneous flux at time t (ns)."""
        t = np.asarray(t_ns, dtype=float)
        w = 2.0 * np.pi * self.fm_ghz
        ac = self.amp_fundamental_phi0 * np.cos(w * t) + self.amp_multiple_phi0 * np.cos(
            self.p * w * t + self.theta_rad
        )
        out = self.phi_dc_phi0 + ac
        return float(out) if np.isscalar(t_ns) else out


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """End slope of the monotone cubic: the one-sided three-point estimate,
    zero where its sign leaves the end secant's and three times that secant
    where the first two secants differ in sign and it exceeds that (Moler,
    Numerical Computing with MATLAB, pchiptx)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _monotone_cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, intervals), highest power first in x - x_k, of the
    piecewise cubic Hermite interpolant with Fritsch-Carlson monotone
    slopes: SIAM J. Numer. Anal. 17, 238 (1980).

    An interior slope is the weighted harmonic mean of its two secants
    (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5, 300 (1984)), zero
    where they differ in sign or one is flat; the ends follow _end_slope.
    This is scipy's PchipInterpolator, term for term, so a caller's
    np.errstate sees the same overflows.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    # a zero secant divides by zero here, and its slope is set to zero below
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


@dataclass(frozen=True)
class TransferFunction:
    """Tabulated amplitude transmission of the flux line vs frequency.

    Evaluation uses the Fritsch-Carlson monotone cubic (PCHIP) between
    table points, which adds no extremum between them, and refuses to
    extrapolate: frequencies outside the tabulated band raise OutOfBand.
    A table whose interpolant overflows (a frequency near 1e300 MHz, say)
    raises ValidationError.
    """

    freqs_mhz: tuple[float, ...]
    transmission: tuple[float, ...]

    def __post_init__(self) -> None:
        f = np.asarray(self.freqs_mhz, dtype=float)
        t = np.asarray(self.transmission, dtype=float)
        if f.size < 4:
            raise ValidationError("transfer function table needs at least 4 points")
        if f.size != t.size:
            raise ValidationError("frequency and transmission columns differ in length")
        for name, col in (("frequency", f), ("transmission", t)):
            if not np.all(np.isfinite(col)):
                raise ValidationError(f"{name} values must be finite numbers")
        if not np.all(np.diff(f) > 0):
            raise ValidationError("frequencies must be strictly increasing")
        if not np.all(t > 0):
            raise ValidationError("transmission values must be positive")
        # built once per table; the frozen fields never change under it
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                coeffs = _monotone_cubic(f, t)
        except FloatingPointError as exc:
            raise ValidationError(
                f"transfer function table at {self.freqs_mhz} MHz cannot be interpolated: {exc}"
            ) from None
        object.__setattr__(self, "_knots", f)
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def band_mhz(self) -> tuple[float, float]:
        return self.freqs_mhz[0], self.freqs_mhz[-1]

    def at(self, f_mhz: np.ndarray | float) -> np.ndarray | float:
        f = np.asarray(f_mhz, dtype=float)
        lo, hi = self.band_mhz
        if (f < lo - 1e-9).any() or (f > hi + 1e-9).any():
            raise OutOfBand(
                f"frequency outside tabulated band [{lo}, {hi}] MHz"
            )
        f = np.minimum(np.maximum(f, lo), hi)
        # interval k holds knots[k] <= f < knots[k + 1]; the top knot closes the last
        k = np.searchsorted(self._knots[1:-1], f, side="right")
        s = f - self._knots[k]
        c = self._coeffs[:, k]
        out = ((c[0] * s + c[1]) * s + c[2]) * s + c[3]
        return float(out) if np.isscalar(f_mhz) else out

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("freq_mhz,transmission\n")
            for f, t in zip(self.freqs_mhz, self.transmission):
                fh.write(f"{f:.12g},{t:.12g}\n")


def apply_transfer_compensation(
    pulse: BichromaticPulse, tf: TransferFunction
) -> tuple[float, float]:
    """Per-tone amplitude factors that cancel the line response.

    Returns (fundamental factor, multiple factor); each is the reciprocal
    of the tabulated transmission at that tone's frequency.
    """
    return 1.0 / float(tf.at(pulse.fm_mhz)), 1.0 / float(tf.at(pulse.p * pulse.fm_mhz))


def scale_tones(
    pulse: BichromaticPulse,
    scale_fundamental: float,
    scale_multiple: float,
    theta_shift_rad: float = 0.0,
) -> BichromaticPulse:
    """Rescale each tone amplitude and shift the relative phase.

    The result is re-expressed in (total amplitude, mixing angle) form;
    both per-tone amplitudes stay nonnegative so the angle stays in
    [0, pi/2].
    """
    if scale_fundamental < 0.0 or scale_multiple < 0.0:
        raise ValidationError("tone scale factors must be nonnegative")
    a1 = pulse.amp_fundamental_phi0 * scale_fundamental
    ap = pulse.amp_multiple_phi0 * scale_multiple
    return replace(
        pulse,
        phi_ac_phi0=math.hypot(a1, ap),
        alpha_rad=math.atan2(ap, a1),
        theta_rad=wrap_angle(pulse.theta_rad + theta_shift_rad),
    )


def compensate_pulse(
    pulse: BichromaticPulse, tf: TransferFunction, theta0_rad: float = 0.0
) -> BichromaticPulse:
    """Pulse to program so the hardware emits the requested one.

    Divides each tone by the line transmission and pre-rotates the
    relative phase against a known hardware phase offset.
    """
    s1, sp = apply_transfer_compensation(pulse, tf)
    return scale_tones(pulse, s1, sp, theta_shift_rad=(pulse.p - 1) * theta0_rad)


def distort_pulse(
    pulse: BichromaticPulse, tf: TransferFunction, theta0_rad: float = 0.0
) -> BichromaticPulse:
    """Pulse the device actually sees for a programmed pulse.

    Applies the line transmission to each tone and the phase offset to the
    relative phase: the exact inverse of compensate_pulse.
    """
    t1 = float(tf.at(pulse.fm_mhz))
    tp = float(tf.at(pulse.p * pulse.fm_mhz))
    return scale_tones(pulse, t1, tp, theta_shift_rad=(1 - pulse.p) * theta0_rad)
