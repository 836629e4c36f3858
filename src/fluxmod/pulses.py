"""Two-tone flux pulse definitions, synthesis, and tone bookkeeping.

A pulse drives the SQUID flux with a fundamental at the modulation
frequency plus a second tone at an integer multiple of it.  The mixing
angle splits the total ac amplitude between the tones and the relative
phase sets their alignment.  Time is in ns, frequency surfaces in MHz,
flux in units of the flux quantum.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    AliasingRisk,
    InsufficientWindow,
    OutOfBand,
    ValidationError,
    require_finite,
)

__all__ = [
    "BichromaticPulse",
    "EnvelopeSpec",
    "Waveform",
    "ToneRatio",
    "TransferFunction",
    "synthesize",
    "tone_ratio",
    "wrap_angle",
    "effective_theta_after_shift",
    "precompensate_theta",
    "scale_tones",
    "apply_transfer_compensation",
    "compensate_pulse",
    "distort_pulse",
]

_WAVEFORM_MAGIC = b"FLXW"


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
        """Instantaneous flux at time t (ns), without any envelope."""
        t = np.asarray(t_ns, dtype=float)
        w = 2.0 * np.pi * self.fm_ghz
        ac = self.amp_fundamental_phi0 * np.cos(w * t) + self.amp_multiple_phi0 * np.cos(
            self.p * w * t + self.theta_rad
        )
        out = self.phi_dc_phi0 + ac
        return float(out) if np.isscalar(t_ns) else out


@dataclass(frozen=True)
class EnvelopeSpec:
    """Flat-top envelope with erf-shaped rise and fall.

    The rise is centered ``rise_ns / 2`` into the pulse with width
    ``rise_ns / 5``; the raw profile is shifted and rescaled so the
    envelope starts at exactly zero and the flat top sits at exactly one.
    """

    rise_ns: float = 8.0

    def __post_init__(self) -> None:
        if self.rise_ns <= 0.0:
            raise ValidationError("rise time must be positive")

    def samples(self, t_ns: np.ndarray, duration_ns: float) -> np.ndarray:
        from scipy.special import erf

        if duration_ns < 4.0 * self.rise_ns:
            raise ValidationError("duration must be at least four rise times")
        sigma = self.rise_ns / 5.0
        t = np.asarray(t_ns, dtype=float)
        raw = 0.5 * (
            erf((t - 0.5 * self.rise_ns) / (sigma * math.sqrt(2.0)))
            - erf((t - (duration_ns - 0.5 * self.rise_ns)) / (sigma * math.sqrt(2.0)))
        )
        base = 0.5 * (
            erf((-0.5 * self.rise_ns) / (sigma * math.sqrt(2.0)))
            - erf((-(duration_ns - 0.5 * self.rise_ns)) / (sigma * math.sqrt(2.0)))
        )
        top = 0.5 * (
            erf((0.5 * duration_ns - 0.5 * self.rise_ns) / (sigma * math.sqrt(2.0)))
            - erf((-0.5 * duration_ns + 0.5 * self.rise_ns) / (sigma * math.sqrt(2.0)))
        )
        return (raw - base) / (top - base)


@dataclass(frozen=True)
class Waveform:
    """Sampled flux record plus the window where the envelope is flat."""

    sample_rate_gsps: float
    samples: np.ndarray
    pulse: BichromaticPulse | None = None
    flat_start_ns: float = 0.0
    flat_end_ns: float | None = None

    @property
    def duration_ns(self) -> float:
        return (len(self.samples) - 1) / self.sample_rate_gsps

    @property
    def t_ns(self) -> np.ndarray:
        return np.arange(len(self.samples)) / self.sample_rate_gsps

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t_ns,flux_phi0\n")
            for t, s in zip(self.t_ns, self.samples):
                fh.write(f"{t:.12g},{s:.12g}\n")

    def to_binary(self, path: str | Path) -> None:
        """Raw float64 samples after a 24-byte header (magic, rate, count)."""
        with open(path, "wb") as fh:
            fh.write(_WAVEFORM_MAGIC)
            fh.write(struct.pack("<dQ", self.sample_rate_gsps, len(self.samples)))
            fh.write(np.ascontiguousarray(self.samples, dtype="<f8").tobytes())

    @classmethod
    def from_binary(cls, path: str | Path) -> "Waveform":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _WAVEFORM_MAGIC:
                raise ValidationError("not a waveform file")
            rate, n = struct.unpack("<dQ", fh.read(16))
            data = np.frombuffer(fh.read(8 * n), dtype="<f8")
        if data.size != n:
            raise ValidationError("waveform file truncated")
        return cls(sample_rate_gsps=rate, samples=data.copy())


def synthesize(
    pulse: BichromaticPulse,
    duration_ns: float,
    sample_rate_gsps: float,
    envelope: EnvelopeSpec | None = None,
) -> Waveform:
    """Sample the pulse on a uniform grid, optionally under an envelope.

    The envelope scales only the ac part; the dc bias is held throughout.
    Raises AliasingRisk below ten samples per period of the fastest tone.
    """
    if duration_ns <= 0.0:
        raise ValidationError("duration must be positive")
    if sample_rate_gsps < 10.0 * pulse.p * pulse.fm_ghz:
        raise AliasingRisk(
            f"sample rate {sample_rate_gsps} GS/s gives fewer than ten samples "
            f"per period of the {pulse.p * pulse.fm_mhz} MHz tone"
        )
    n = int(round(duration_ns * sample_rate_gsps)) + 1
    t = np.arange(n) / sample_rate_gsps
    ac = pulse.flux(t) - pulse.phi_dc_phi0
    if envelope is not None:
        ac = ac * envelope.samples(t, duration_ns)
        flat_start, flat_end = envelope.rise_ns, duration_ns - envelope.rise_ns
    else:
        flat_start, flat_end = 0.0, duration_ns
    return Waveform(
        sample_rate_gsps=sample_rate_gsps,
        samples=pulse.phi_dc_phi0 + ac,
        pulse=pulse,
        flat_start_ns=flat_start,
        flat_end_ns=flat_end,
    )


@dataclass(frozen=True)
class ToneRatio:
    """Measured second-tone to fundamental amplitude ratio.

    When the fundamental amplitude is numerically zero the ratio is
    reported in the reciprocal orientation (``inverted=True``) so the
    value stays finite; a fully second-tone pulse reports value 0.0
    inverted rather than infinity.
    """

    value: float
    inverted: bool = False


def tone_ratio(waveform: Waveform, min_periods: int = 8) -> ToneRatio:
    """Recover tan(alpha) from a sampled record by single-bin projection.

    Projects the flat part of the record onto the fundamental and the
    multiple over a whole number of fundamental periods, which kills
    leakage between the two bins.  Needs the pulse metadata for the tone
    frequencies and at least ``min_periods`` fundamental periods of flat
    window.
    """
    if waveform.pulse is None:
        raise ValidationError("waveform carries no pulse metadata")
    pulse = waveform.pulse
    rate = waveform.sample_rate_gsps
    flat_end = waveform.flat_end_ns if waveform.flat_end_ns is not None else waveform.duration_ns
    window_ns = flat_end - waveform.flat_start_ns
    n_periods = int(math.floor(window_ns * pulse.fm_ghz))
    if n_periods < min_periods:
        raise InsufficientWindow(
            f"flat window holds {n_periods} fundamental periods; need {min_periods}"
        )
    i0 = int(math.ceil(waveform.flat_start_ns * rate))
    m = int(round(n_periods / pulse.fm_ghz * rate))
    seg = waveform.samples[i0 : i0 + m]
    t = (np.arange(m) + i0) / rate
    x = seg - np.mean(seg)

    def amp(f_ghz: float) -> float:
        z = np.mean(x * np.exp(-2j * np.pi * f_ghz * t))
        return 2.0 * abs(z)

    a1 = amp(pulse.fm_ghz)
    ap = amp(pulse.p * pulse.fm_ghz)
    if a1 < 1e-9 * max(ap, 1e-30):
        if ap < 1e-30:
            return ToneRatio(value=0.0, inverted=False)
        return ToneRatio(value=a1 / ap, inverted=True)
    return ToneRatio(value=ap / a1, inverted=False)


def effective_theta_after_shift(theta_rad: float, p: int, beta_rad: float) -> float:
    """Relative phase after both tones acquire a common phase offset beta.

    A shared time shift advances the fundamental by beta and the multiple
    by p * beta, so the relative phase moves by (1 - p) * beta.  For p = 1
    the relative phase is invariant.
    """
    return wrap_angle(theta_rad + (1 - p) * beta_rad)


def precompensate_theta(theta_desired_rad: float, p: int, theta0_rad: float) -> float:
    """Programmed phase that lands on the desired one after a known offset.

    Inverts the shift applied by hardware with phase offset theta0:
    program theta + (p - 1) * theta0 and the emitted pulse carries theta.
    Solutions are only defined modulo 2 pi / (p - 1) for p > 1.
    """
    return wrap_angle(theta_desired_rad + (p - 1) * theta0_rad)


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

    @classmethod
    def from_csv(cls, path: str | Path) -> "TransferFunction":
        freqs, trans = [], []
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("freq_mhz"):
                raise ValidationError("expected header 'freq_mhz,transmission'")
            for line in fh:
                if not line.strip():
                    continue
                a, b = line.split(",")
                freqs.append(float(a))
                trans.append(float(b))
        return cls(freqs_mhz=tuple(freqs), transmission=tuple(trans))


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
