"""Static model of a flux-tunable transmon.

Everything downstream (averaged frequencies, sideband spectra, gate plans)
reduces to one curve: the transition frequency as a function of total flux
through the SQUID loop.  This module owns that curve.  It diagonalizes the
transmon Hamiltonian in the charge basis, fits junction parameters to the
three numbers a characterization run actually produces (top of the band,
bottom of the band, anharmonicity), and compresses the resulting curve into
a short cosine series that the modulation analysis consumes.

Units: energies and frequencies in GHz, flux in units of the flux quantum.
The frequency curve is periodic in flux with period 1 and even around 0,
so a plain cosine series represents it exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    DiagonalizationFailure,
    FitDivergence,
    TruncationTooCoarse,
    ValidationError,
    require_finite,
)

__all__ = [
    "TransmonSpec",
    "FourierSeries",
    "FrequencyCurve",
    "Device",
    "DevicePair",
    "ej_eff",
    "transition_frequencies",
    "fit_spec",
    "fourier_coefficients",
    "frequency_curve",
    "load_device",
]


@dataclass(frozen=True)
class TransmonSpec:
    """Junction asymmetry and charging energy of one tunable transmon.

    ``ej1_ghz >= ej2_ghz > 0`` by convention; swapping the junctions does
    not change any observable.
    """

    ej1_ghz: float
    ej2_ghz: float
    ec_ghz: float
    label: str = ""

    def __post_init__(self) -> None:
        require_finite(ej1_ghz=self.ej1_ghz, ej2_ghz=self.ej2_ghz, ec_ghz=self.ec_ghz)
        if not (self.ej1_ghz > 0.0 and self.ej2_ghz > 0.0):
            raise ValidationError("junction energies must be positive")
        if self.ec_ghz <= 0.0:
            raise ValidationError("charging energy must be positive")
        if self.ej2_ghz > self.ej1_ghz:
            raise ValidationError("require ej1_ghz >= ej2_ghz (relabel the junctions)")


@dataclass(frozen=True)
class FourierSeries:
    """Cosine series sum_n c_n cos(n phi) for a flux-periodic frequency curve.

    ``phi`` is the flux in angular units, 2*pi*(flux / flux quantum).
    Coefficients are stored as a plain tuple so the series is hashable and
    can key caches.
    """

    coefficients: tuple[float, ...]
    channel: str = "f01"

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)

    def evaluate(self, flux_phi0: np.ndarray | float) -> np.ndarray | float:
        """Frequency at the given flux (units of the flux quantum)."""
        phi = 2.0 * np.pi * np.asarray(flux_phi0, dtype=float)
        n = np.arange(len(self.coefficients))
        out = np.cos(np.multiply.outer(phi, n)) @ self.as_array()
        return float(out) if np.isscalar(flux_phi0) else out


@dataclass(frozen=True)
class FrequencyCurve:
    """Tabulated transition frequencies along a dc flux grid."""

    flux_phi0: np.ndarray
    f01_ghz: np.ndarray
    f12_ghz: np.ndarray

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("flux_phi0,f01_ghz,f12_ghz\n")
            for x, a, b in zip(self.flux_phi0, self.f01_ghz, self.f12_ghz):
                fh.write(f"{x:.12g},{a:.12g},{b:.12g}\n")


def ej_eff(spec: TransmonSpec, flux_phi0: np.ndarray | float) -> np.ndarray | float:
    """Effective Josephson energy of the asymmetric SQUID at a dc flux."""
    phi = 2.0 * np.pi * np.asarray(flux_phi0, dtype=float)
    e1, e2 = spec.ej1_ghz, spec.ej2_ghz
    out = np.sqrt(e1 * e1 + e2 * e2 + 2.0 * e1 * e2 * np.cos(phi))
    return float(out) if np.isscalar(flux_phi0) else out


def _required_cutoff(spec: TransmonSpec) -> int:
    # charge spread of the ground state ~ (EJ/8EC)^(1/4); five spreads keeps
    # the truncated boundary amplitude at numerical noise
    zeta = ((spec.ej1_ghz + spec.ej2_ghz) / (8.0 * spec.ec_ghz)) ** 0.25
    return max(5, math.ceil(5.0 * zeta))


def transition_frequencies(
    spec: TransmonSpec,
    flux_phi0: np.ndarray | float,
    n_charge: int = 20,
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """First two transition frequencies (f01, f12) at the given dc flux.

    Diagonalizes the charge-basis Hamiltonian with charge states
    -n_charge..n_charge.  The flux argument may be an array; the
    diagonalization is batched over it.  f12 - f01 is negative for any
    transmon-regime spec.
    """
    if n_charge < _required_cutoff(spec):
        raise TruncationTooCoarse(
            f"charge cutoff {n_charge} too small for EJ/EC ratio; "
            f"need at least {_required_cutoff(spec)}"
        )
    scalar = np.isscalar(flux_phi0)
    flux = np.atleast_1d(np.asarray(flux_phi0, dtype=float))
    ej = np.atleast_1d(ej_eff(spec, flux))

    dim = 2 * n_charge + 1
    n = np.arange(-n_charge, n_charge + 1)
    h = np.zeros((flux.size, dim, dim))
    h[:, np.arange(dim), np.arange(dim)] = 4.0 * spec.ec_ghz * n * n
    idx = np.arange(dim - 1)
    h[:, idx, idx + 1] = -0.5 * ej[:, None]
    h[:, idx + 1, idx] = -0.5 * ej[:, None]
    try:
        levels = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise DiagonalizationFailure(str(exc)) from exc

    f01 = levels[:, 1] - levels[:, 0]
    f12 = levels[:, 2] - levels[:, 1]
    if scalar:
        return float(f01[0]), float(f12[0])
    return f01, f12


def frequency_curve(
    spec: TransmonSpec,
    flux_min: float = -0.5,
    flux_max: float = 0.5,
    points: int = 201,
) -> FrequencyCurve:
    """Sample f01 and f12 on a uniform dc flux grid."""
    if points < 2:
        raise ValidationError("need at least two grid points")
    flux = np.linspace(flux_min, flux_max, points)
    f01, f12 = transition_frequencies(spec, flux)
    return FrequencyCurve(flux_phi0=flux, f01_ghz=f01, f12_ghz=f12)


def fit_spec(
    f01_max_ghz: float,
    f01_min_ghz: float,
    anharm_ghz: float,
    *,
    label: str = "",
    f_tol_ghz: float = 1e-4,
    anharm_tol_ghz: float = 1e-3,
    max_iter: int = 60,
) -> TransmonSpec:
    """Fit junction energies to band-edge frequencies and anharmonicity.

    Inputs are the three numbers routinely extracted from spectroscopy:
    f01 at zero flux (top of the band), f01 at half a flux quantum (bottom
    of the band), and f12 - f01 at zero flux.  A damped Newton iteration on
    (EJ1, EJ2, EC) with a numerical Jacobian converges in a handful of
    steps from the standard transmon asymptotics.

    Raises FitDivergence when the targets are unreachable, including the
    degenerate zero-tunability case (equal band edges force EJ2 -> 0), and
    ValidationError when an input is NaN or infinite.
    """
    require_finite(
        f01_max_ghz=f01_max_ghz, f01_min_ghz=f01_min_ghz, anharm_ghz=anharm_ghz
    )
    if not (f01_max_ghz > f01_min_ghz > 0.0):
        raise FitDivergence(
            "need f01_max > f01_min > 0; zero tunability is outside the model"
        )
    if not (-1.0 < anharm_ghz < 0.0):
        raise FitDivergence("anharmonicity must be negative and moderate (GHz units)")

    targets = np.array([f01_max_ghz, f01_min_ghz, anharm_ghz])

    def residual(x: np.ndarray) -> np.ndarray:
        s = TransmonSpec(ej1_ghz=x[0], ej2_ghz=x[1], ec_ghz=x[2])
        f01_0, f12_0 = transition_frequencies(s, 0.0)
        f01_h, _ = transition_frequencies(s, 0.5)
        return np.array([f01_0, f01_h, f12_0 - f01_0]) - targets

    # transmon asymptotics: f01 ~ sqrt(8 EJ EC) - EC, anharm ~ -EC
    ec = -anharm_ghz
    ej_top = (f01_max_ghz + ec) ** 2 / (8.0 * ec)
    ej_bot = (f01_min_ghz + ec) ** 2 / (8.0 * ec)
    x = np.array([(ej_top + ej_bot) / 2.0, (ej_top - ej_bot) / 2.0, ec])

    tol = np.array([f_tol_ghz, f_tol_ghz, anharm_tol_ghz])
    r = residual(x)
    for _ in range(max_iter):
        if np.all(np.abs(r) < tol):
            return TransmonSpec(
                ej1_ghz=float(x[0]), ej2_ghz=float(x[1]), ec_ghz=float(x[2]),
                label=label,
            )
        jac = np.empty((3, 3))
        for j in range(3):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (residual(xp) - r) / h
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise FitDivergence("singular Jacobian during fit") from exc
        # damp: halve the step until the residual actually shrinks
        lam = 1.0
        for _ in range(8):
            xn = x + lam * step
            if xn[0] > xn[1] > 1e-9 and xn[2] > 1e-6:
                rn = residual(xn)
                if np.linalg.norm(rn) < np.linalg.norm(r):
                    x, r = xn, rn
                    break
            lam *= 0.5
        else:
            raise FitDivergence("fit stalled; targets likely unphysical")
    raise FitDivergence(f"no convergence after {max_iter} iterations")


@lru_cache(maxsize=128)
def _cached_series(
    spec: TransmonSpec, n_terms: int, channel: str, samples: int
) -> FourierSeries:
    flux = np.arange(samples) / samples
    f01, f12 = transition_frequencies(spec, flux)
    f = {"f01": f01, "f12": f12}[channel]
    phi = 2.0 * np.pi * flux
    coeffs = [float(np.mean(f))]
    for n in range(1, n_terms + 1):
        coeffs.append(float(2.0 * np.mean(f * np.cos(n * phi))))
    return FourierSeries(coefficients=tuple(coeffs), channel=channel)


def fourier_coefficients(
    spec: TransmonSpec,
    n_terms: int = 24,
    *,
    channel: str = "f01",
    samples: int = 4096,
) -> FourierSeries:
    """Cosine coefficients of the flux-periodic transition frequency.

    The curve is even and periodic, so projecting onto cos(n phi) with a
    uniform trapezoid rule is spectrally accurate; 4096 samples push the
    projection error to machine noise.  Coefficients decay geometrically,
    about a factor 7 per harmonic for typical asymmetries, so 24 terms
    reach the 1e-15 GHz floor.  Results are cached per (spec, channel).
    """
    if n_terms < 4:
        raise ValidationError("need at least 4 harmonics to represent the curve")
    if channel not in ("f01", "f12"):
        raise ValidationError(f"unknown channel {channel!r}; use 'f01' or 'f12'")
    if samples < 16 * n_terms:
        raise ValidationError("sampling too coarse for the requested harmonic count")
    return _cached_series(spec, n_terms, channel, samples)


@dataclass(frozen=True)
class DevicePair:
    """Capacitively coupled qubit pair as listed in a device file."""

    modulated: str
    neighbor: str
    coupling_mhz: float
    tls_ghz: tuple[float, ...] = ()


@dataclass(frozen=True)
class Device:
    """Fitted specs for every qubit in a device file, plus pair wiring."""

    qubits: dict[str, TransmonSpec]
    pairs: tuple[DevicePair, ...] = ()

    def pair(self, modulated: str, neighbor: str) -> DevicePair:
        for p in self.pairs:
            if p.modulated == modulated and p.neighbor == neighbor:
                return p
        raise ValidationError(f"device file lists no pair {modulated}:{neighbor}")


def load_device(path: str | Path) -> Device:
    """Load a device description and fit a spec per qubit.

    Qubit entries give either band-edge characterization data
    (f01_max_ghz, f01_min_ghz, anharm_ghz) or explicit junction energies
    (ej1_ghz, ej2_ghz, ec_ghz).  Pair entries name two qubits, their static
    coupling in MHz, and optionally a list of parasitic TLS frequencies.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if "qubits" not in raw or not isinstance(raw["qubits"], dict):
        raise ValidationError("device file needs a 'qubits' mapping")

    qubits: dict[str, TransmonSpec] = {}
    for name, entry in raw["qubits"].items():
        try:
            if "ej1_ghz" in entry:
                qubits[name] = TransmonSpec(
                    ej1_ghz=float(entry["ej1_ghz"]),
                    ej2_ghz=float(entry["ej2_ghz"]),
                    ec_ghz=float(entry["ec_ghz"]),
                    label=name,
                )
            else:
                qubits[name] = fit_spec(
                    float(entry["f01_max_ghz"]),
                    float(entry["f01_min_ghz"]),
                    float(entry["anharm_ghz"]),
                    label=name,
                )
        except KeyError as exc:
            raise ValidationError(
                f"qubit {name!r}: missing key {exc.args[0]!r}; need "
                "f01_max_ghz/f01_min_ghz/anharm_ghz or ej1_ghz/ej2_ghz/ec_ghz"
            ) from exc

    pairs = []
    for i, entry in enumerate(raw.get("pairs", [])):
        try:
            a, b, coupling = entry["modulated"], entry["neighbor"], entry["coupling_mhz"]
        except KeyError as exc:
            raise ValidationError(
                f"pair entry {i}: missing key {exc.args[0]!r}"
            ) from exc
        for q in (a, b):
            if q not in qubits:
                raise ValidationError(f"pair references unknown qubit {q!r}")
        pairs.append(
            DevicePair(
                modulated=a,
                neighbor=b,
                coupling_mhz=float(coupling),
                tls_ghz=tuple(float(t) for t in entry.get("tls_ghz", ())),
            )
        )
    return Device(qubits=qubits, pairs=tuple(pairs))
