"""Pulse calibration against a simulated flux-line imperfection model.

Real flux lines attenuate each tone differently and advance both tones by
a common trigger phase, which shifts the relative phase of a two-tone
pulse by (1 - p) times the offset.  This module provides a virtual
hardware stand-in with a hidden phase offset and transfer function, plus
the calibration routines that recover both from Ramsey-style averaged
frequency measurements alone, mirroring how the real bring-up works.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv

from .errors import (
    FlatResponse,
    NonMonotoneRegion,
    ValidationError,
    require_entry,
    require_number,
)
from .modulation import avg_frequency_slopes, sweet_spot_solve
from .pulses import (
    BichromaticPulse,
    TransferFunction,
    compensate_pulse,
    distort_pulse,
    wrap_angle,
)
from .transmon import TransmonSpec, fourier_coefficients

__all__ = [
    "VirtualHardware",
    "RamseyResult",
    "Theta0Estimate",
    "CalibrationOutcome",
    "virtual_ramsey",
    "calibrate_theta0",
    "calibrate_transfer_function",
    "calibrate_and_verify",
    "reference_transfer_function",
    "load_scenario",
    "save_scenario",
]


def reference_transfer_function(
    band_mhz: tuple[float, float] = (10.0, 500.0), n_points: int = 40
) -> TransferFunction:
    """Plausible flux-line response: gentle mid-band bump, quartic roll-off."""
    f = np.linspace(band_mhz[0], band_mhz[1], n_points)
    t = (0.92 + 0.1 * np.exp(-(((f - 60.0) / 90.0) ** 2))) / (1.0 + (f / 400.0) ** 4)
    return TransferFunction(freqs_mhz=tuple(f), transmission=tuple(t))


@dataclass
class VirtualHardware:
    """Simulated control line with hidden distortions.

    Programmed pulses are attenuated per tone by ``transfer`` and their
    relative phase is shifted by ``(1 - p) * theta0_rad`` before reaching
    the simulated qubit.  Measurements add Gaussian noise from a seeded
    generator.  With ``randomize_theta0`` the offset is redrawn on every
    call, modelling a trigger without phase reproducibility.
    """

    spec: TransmonSpec
    theta0_rad: float = 0.0
    transfer: TransferFunction = field(default_factory=reference_transfer_function)
    noise_sigma_khz: float = 0.0
    seed: int = 0
    randomize_theta0: bool = False

    def __post_init__(self) -> None:
        if self.noise_sigma_khz < 0.0:
            raise ValidationError("noise level must be nonnegative")
        self._rng = np.random.default_rng(self.seed)


@dataclass(frozen=True)
class RamseyResult:
    """Averaged frequency measured for one programmed pulse."""

    f_bar_ghz: float
    uncertainty_khz: float
    programmed: BichromaticPulse


def _model_fbar(spec: TransmonSpec, pulse: BichromaticPulse) -> float:
    fbar, _, _ = avg_frequency_slopes(
        fourier_coefficients(spec),
        pulse.phi_dc_phi0, pulse.p, pulse.alpha_rad, pulse.theta_rad, [pulse.phi_ac_phi0],
    )
    return float(fbar[0])


def virtual_ramsey(hw: VirtualHardware, pulse: BichromaticPulse) -> RamseyResult:
    """Measure the averaged frequency under the simulated distortions.

    The programmed pulse is distorted by the hidden transfer function and
    phase offset, the ideal averaged frequency of the distorted pulse is
    evaluated, and seeded Gaussian noise is added.
    """
    theta0 = hw.theta0_rad
    if hw.randomize_theta0:
        theta0 = float(hw._rng.uniform(-math.pi, math.pi))
    delivered = distort_pulse(pulse, hw.transfer, theta0_rad=theta0)
    fbar = _model_fbar(hw.spec, delivered)
    if hw.noise_sigma_khz > 0.0:
        fbar += float(hw._rng.normal(0.0, hw.noise_sigma_khz * 1e-6))
    return RamseyResult(
        f_bar_ghz=fbar, uncertainty_khz=hw.noise_sigma_khz, programmed=pulse
    )


@dataclass(frozen=True)
class Theta0Estimate:
    """Recovered hardware phase offset and its intrinsic ambiguity.

    The offset enters observables only through (1 - p) * theta0, so it is
    identifiable modulo 2 pi / (p - 1); the estimate is reported in the
    principal branch and ``ambiguity_rad`` records the modulus.
    """

    theta0_rad: float
    ambiguity_rad: float
    fit_residual_ghz: float
    n_sweeps: int


def _model_nu1(spec: TransmonSpec, pulse: BichromaticPulse) -> float:
    """First theta-harmonic of the averaged frequency at given amplitudes."""
    coeffs = fourier_coefficients(spec).as_array()
    n = np.arange(coeffs.size)
    a1 = 2.0 * np.pi * pulse.amp_fundamental_phi0
    ap = 2.0 * np.pi * pulse.amp_multiple_phi0
    phase = np.cos(2.0 * np.pi * pulse.phi_dc_phi0 * n + (pulse.p + 1) * (np.pi / 2.0))
    return float(2.0 * np.sum(coeffs * phase * jv(pulse.p, n * a1) * jv(1, n * ap)))


def _theta0_from_sweep(
    hw: VirtualHardware,
    template: BichromaticPulse,
    n_theta: int,
    transfer: TransferFunction | None,
) -> tuple[float, float]:
    thetas = np.linspace(-math.pi, math.pi, n_theta, endpoint=False)
    measured = np.array(
        [
            virtual_ramsey(hw, replace(template, theta_rad=float(th))).f_bar_ghz
            for th in thetas
        ]
    )
    span = float(measured.max() - measured.min())
    floor = 5.0 * max(hw.noise_sigma_khz * 1e-6, 1e-6)
    if span < floor:
        raise FlatResponse(
            f"theta sweep spans {span * 1e6:.2f} kHz, below the usable floor"
        )

    # harmonics up to m=4; a uniform full-period grid keeps the columns
    # orthogonal so higher harmonics cannot alias into m=1
    cols = [np.ones_like(thetas)]
    for m in range(1, 5):
        cols.append(np.cos(m * thetas))
        cols.append(np.sin(m * thetas))
    design = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(design, measured, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - measured) ** 2)))
    a1, b1 = coef[1], coef[2]

    delta = math.atan2(-b1, a1)
    # the sweep only fixes the m=1 phase up to the sign of its amplitude;
    # the model supplies that sign at the tone amplitudes the qubit sees,
    # which the line attenuation can move across a zero of the harmonic
    seen = template if transfer is None else distort_pulse(template, transfer)
    if _model_nu1(hw.spec, seen) < 0.0:
        delta += math.pi
    theta0 = wrap_angle(delta) / (1 - template.p)
    half = math.pi / (template.p - 1)
    theta0 = (theta0 + half) % (2.0 * half) - half
    return theta0, resid


def calibrate_theta0(
    hw: VirtualHardware,
    template: BichromaticPulse,
    n_theta: int = 32,
    amplitudes: tuple[float, ...] = (),
    transfer: TransferFunction | None = None,
) -> Theta0Estimate:
    """Recover the hardware phase offset from averaged-frequency sweeps.

    Sweeps the programmed relative phase over a full period, fits the
    response's first harmonic, and reads the offset from its phase.  With
    ``amplitudes`` given, the sweep repeats at each total amplitude and
    the median estimate is returned, which suppresses occasional
    low-contrast sweeps.  Requires p >= 3: for p = 1 the relative phase
    is invariant under the offset and nothing can be learned.

    ``transfer`` is a measured line response.  When given, the sign of
    the fitted harmonic is taken at the attenuated tone amplitudes that
    reach the qubit rather than at the programmed ones; without it the
    line is assumed flat.
    """
    if template.p < 2:
        raise ValidationError(
            "phase offset is unobservable for p = 1; use a template with p >= 2"
        )
    if n_theta < 16:
        raise ValidationError("need at least 16 phase points over a full period")
    if template.alpha_rad <= 0.0 or template.alpha_rad >= math.pi / 2.0:
        raise ValidationError(
            "template must carry both tones (0 < alpha < pi/2) for phase contrast"
        )

    amps = amplitudes if amplitudes else (template.phi_ac_phi0,)
    half = math.pi / (template.p - 1)
    estimates, residuals = [], []
    for amp in amps:
        est, resid = _theta0_from_sweep(
            hw, replace(template, phi_ac_phi0=float(amp)), n_theta, transfer
        )
        estimates.append(est)
        residuals.append(resid)
    # unwrap all estimates onto the branch of the first before the median
    ref = estimates[0]
    aligned = [
        ref + wrap_angle((e - ref) * (template.p - 1)) / (template.p - 1)
        for e in estimates
    ]
    theta0 = float(np.median(aligned))
    theta0 = (theta0 + half) % (2.0 * half) - half
    return Theta0Estimate(
        theta0_rad=theta0,
        ambiguity_rad=2.0 * half,
        fit_residual_ghz=float(max(residuals)),
        n_sweeps=len(amps),
    )


def calibrate_transfer_function(
    hw: VirtualHardware,
    probe_freqs_mhz: tuple[float, ...],
    probe_amp_phi0: float = 0.3,
) -> TransferFunction:
    """Measure per-frequency transmission with single-tone probes.

    At each probe frequency a monochromatic pulse of known programmed
    amplitude is measured; the delivered amplitude is recovered by
    inverting the monotone averaged-frequency curve between zero and its
    first stationary amplitude, and the ratio gives the transmission.
    Raises NonMonotoneRegion when a measurement falls outside the
    invertible branch (probe amplitude too large for that frequency).
    """
    if len(probe_freqs_mhz) < 4:
        raise ValidationError("need at least 4 probe frequencies")
    freqs = tuple(sorted(float(f) for f in probe_freqs_mhz))
    if not 0.0 < probe_amp_phi0 < 0.9:
        raise ValidationError("probe amplitude must sit inside the first flux period")

    series = fourier_coefficients(hw.spec)

    def fbar(amp: float) -> float:
        return float(avg_frequency_slopes(series, 0.0, 1, 0.0, 0.0, [amp])[0][0])

    # invertible branch: zero amplitude down to the first stationary point
    bound = sweet_spot_solve(hw.spec, 0.0, 1, 0.0, 0.0)[0][0] * 0.999
    if probe_amp_phi0 > 0.95 * bound:
        raise NonMonotoneRegion(
            f"probe amplitude {probe_amp_phi0} leaves no headroom below the "
            f"monotone bound {bound:.4f}; the inversion would be ambiguous"
        )

    top, bot = fbar(0.0), fbar(bound)
    trans = []
    for f in freqs:
        probe = BichromaticPulse(
            fm_mhz=f, phi_ac_phi0=probe_amp_phi0, alpha_rad=0.0, theta_rad=0.0, p=1
        )
        measured = virtual_ramsey(hw, probe).f_bar_ghz
        if measured > top + 1e-12 or measured < bot - 1e-12:
            raise NonMonotoneRegion(
                f"measurement at {f} MHz falls outside the invertible branch"
            )
        # clamp the tolerated overshoot so the bracket keeps its sign change
        level = min(max(measured, bot), top)
        delivered = brentq(lambda a: fbar(a) - level, 0.0, bound, xtol=1e-15)
        trans.append(delivered / probe_amp_phi0)
    return TransferFunction(freqs_mhz=freqs, transmission=tuple(trans))


@dataclass(frozen=True)
class CalibrationOutcome:
    """Result of the closed-loop calibrate-compensate-verify sequence."""

    theta0: Theta0Estimate
    transfer: TransferFunction
    compensated: BichromaticPulse
    target_fbar_ghz: float
    measured_fbar_ghz: float

    @property
    def residual_khz(self) -> float:
        return (self.measured_fbar_ghz - self.target_fbar_ghz) * 1e6


def calibrate_and_verify(
    hw: VirtualHardware,
    desired: BichromaticPulse,
    probe_freqs_mhz: tuple[float, ...],
    n_theta: int = 32,
    amplitudes: tuple[float, ...] = (),
    probe_amp_phi0: float = 0.3,
) -> CalibrationOutcome:
    """Full loop: estimate transfer and offset, compensate, re-measure.

    The verification compares the measurement of the compensated pulse
    against the ideal model value for the desired pulse; with a faithful
    calibration the difference collapses to the noise floor.  Probe
    frequencies should cover both tone frequencies of the desired pulse.
    """
    tf = calibrate_transfer_function(hw, probe_freqs_mhz, probe_amp_phi0=probe_amp_phi0)
    theta0 = calibrate_theta0(
        hw, desired, n_theta=n_theta, amplitudes=amplitudes, transfer=tf
    )
    compensated = compensate_pulse(desired, tf, theta0_rad=theta0.theta0_rad)
    target = _model_fbar(hw.spec, desired)
    measured = virtual_ramsey(hw, compensated).f_bar_ghz
    return CalibrationOutcome(
        theta0=theta0,
        transfer=tf,
        compensated=compensated,
        target_fbar_ghz=target,
        measured_fbar_ghz=measured,
    )


def save_scenario(hw: VirtualHardware, path: str | Path) -> None:
    """Persist a virtual-hardware scenario as JSON."""
    data = {
        "qubit": {
            "ej1_ghz": hw.spec.ej1_ghz,
            "ej2_ghz": hw.spec.ej2_ghz,
            "ec_ghz": hw.spec.ec_ghz,
            "label": hw.spec.label,
        },
        "hidden_theta0_rad": hw.theta0_rad,
        "transfer_function": [
            [f, t] for f, t in zip(hw.transfer.freqs_mhz, hw.transfer.transmission)
        ],
        "noise_sigma_khz": hw.noise_sigma_khz,
        "seed": hw.seed,
        "randomize_theta0": hw.randomize_theta0,
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", "utf-8")


def load_scenario(path: str | Path) -> VirtualHardware:
    """Load a virtual-hardware scenario saved by save_scenario.

    Every value must have the type save_scenario writes: finite JSON
    numbers, a string label, an integer seed and a boolean
    randomize_theta0.  A missing or unknown key, or a value of the wrong
    type, raises ValidationError naming the entry and key.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"scenario file is not valid JSON: {exc}") from exc
    require_entry(
        "scenario file", raw, ("qubit", "transfer_function"),
        ("hidden_theta0_rad", "noise_sigma_khz", "seed", "randomize_theta0"),
    )
    q = require_entry("scenario qubit", raw["qubit"], ("ej1_ghz", "ej2_ghz", "ec_ghz"), ("label",))
    label = q.get("label", "")
    if not isinstance(label, str):
        raise ValidationError(f"scenario qubit: label must be a string, got {label!r}")
    spec = TransmonSpec(
        *(require_number("scenario qubit", key, q[key]) for key in ("ej1_ghz", "ej2_ghz", "ec_ghz")),
        label=label,
    )
    table = raw["transfer_function"]
    if not isinstance(table, list) or not all(
        isinstance(row, list) and len(row) == 2 for row in table
    ):
        raise ValidationError(
            "scenario file: transfer_function must be a list of [freq_mhz, transmission] pairs"
        )
    tf = TransferFunction(
        freqs_mhz=tuple(
            require_number("scenario file", f"transfer_function[{i}][0]", f)
            for i, (f, _) in enumerate(table)
        ),
        transmission=tuple(
            require_number("scenario file", f"transfer_function[{i}][1]", t)
            for i, (_, t) in enumerate(table)
        ),
    )
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(f"scenario file: seed must be an integer, got {seed!r}")
    randomize = raw.get("randomize_theta0", False)
    if not isinstance(randomize, bool):
        raise ValidationError(
            f"scenario file: randomize_theta0 must be true or false, got {randomize!r}"
        )
    return VirtualHardware(
        spec=spec,
        theta0_rad=require_number(
            "scenario file", "hidden_theta0_rad", raw.get("hidden_theta0_rad", 0.0)
        ),
        transfer=tf,
        noise_sigma_khz=require_number(
            "scenario file", "noise_sigma_khz", raw.get("noise_sigma_khz", 0.0)
        ),
        seed=seed,
        randomize_theta0=randomize,
    )
