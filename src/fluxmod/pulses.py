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


@dataclass(frozen=True)
class TransferFunction:
    """Tabulated amplitude transmission of the flux line vs frequency.

    Evaluation uses monotone cubic interpolation between table points and
    refuses to extrapolate: frequencies outside the tabulated band raise
    OutOfBand.  A table whose interpolant overflows (a frequency near
    1e300 MHz, say) raises ValidationError.
    """

    freqs_mhz: tuple[float, ...]
    transmission: tuple[float, ...]

    def __post_init__(self) -> None:
        f = np.asarray(self.freqs_mhz)
        t = np.asarray(self.transmission)
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
        from scipy.interpolate import PchipInterpolator

        # built once per table; the frozen fields never change under it
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                interpolant = PchipInterpolator(f, t)
        except FloatingPointError as exc:
            raise ValidationError(
                f"transfer function table at {self.freqs_mhz} MHz cannot be interpolated: {exc}"
            ) from None
        object.__setattr__(self, "_interpolant", interpolant)

    @property
    def band_mhz(self) -> tuple[float, float]:
        return self.freqs_mhz[0], self.freqs_mhz[-1]

    def at(self, f_mhz: np.ndarray | float) -> np.ndarray | float:
        f = np.asarray(f_mhz, dtype=float)
        lo, hi = self.band_mhz
        if np.any(f < lo - 1e-9) or np.any(f > hi + 1e-9):
            raise OutOfBand(
                f"frequency outside tabulated band [{lo}, {hi}] MHz"
            )
        out = self._interpolant(np.clip(f, lo, hi))
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
