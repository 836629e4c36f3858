"""Exception hierarchy shared across the package.

Three branches, one per failure family, so callers (and the CLI exit-code
mapping) can catch a whole family at once:

* ``ValidationError``   -- the request itself is malformed or out of range.
* ``InfeasibleError``   -- the request is well formed but has no solution.
* ``NumericalError``    -- a solver or series failed to converge.
"""

from __future__ import annotations

import math


class FluxmodError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FluxmodError, ValueError):
    """Inputs violate a documented precondition."""


class InfeasibleError(FluxmodError):
    """Inputs are valid but no solution exists for them."""


class NumericalError(FluxmodError):
    """An iterative method failed to converge or lost accuracy."""


# -- validation ---------------------------------------------------------

def require_finite(**values: float) -> None:
    """Raise ValidationError naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")


def require_number(where: str, key: str, value: object) -> float:
    """A number read from an input file, as a float.

    Raises ValidationError naming the entry and key when the value is not
    a JSON number (a string such as "5" or a boolean included) or is NaN
    or infinite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: {key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{where}: {key} must be a finite number, got {value!r}")
    return float(value)


def require_entry(
    where: str, entry: object, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict:
    """An input-file entry: a mapping with every required key and no unknown one."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: entry must be a mapping, got {entry!r}")
    for key in required:
        if key not in entry:
            raise ValidationError(f"{where}: missing key {key!r}")
    for key in entry:
        if key not in required and key not in optional:
            raise ValidationError(
                f"{where}: unknown key {key!r}; expected {', '.join(required + optional)}"
            )
    return entry


class AliasingRisk(ValidationError):
    """Sample rate below ten samples per period of the fastest tone."""


class InsufficientWindow(ValidationError):
    """Analysis window shorter than the required number of whole periods."""


class OutOfBand(ValidationError):
    """Frequency outside the table backing a transfer function."""


class NonMonotoneRegion(ValidationError):
    """Amplitude request outside the invertible part of a response curve."""


class NonPositiveCoupling(ValidationError):
    """Pair coupling must be a positive rate."""


# -- infeasible ---------------------------------------------------------

class NoRoot(InfeasibleError):
    """No stationary point of the average frequency in the search window."""


class WrongSideband(InfeasibleError):
    """Requested sideband order cannot reach the target from this point."""


class NoFeasiblePoint(InfeasibleError):
    """Every candidate operating point violated a constraint."""


class FlatResponse(InfeasibleError):
    """Measured sweep has no usable contrast to fit."""


# -- numerical ----------------------------------------------------------

class DiagonalizationFailure(NumericalError):
    """Eigenvalue solver did not converge on the qubit Hamiltonian."""


class FitDivergence(NumericalError):
    """Parameter fit left the physical domain or exceeded max iterations."""


class TruncationTooCoarse(NumericalError):
    """Charge-basis cutoff too small for the requested junction energies."""


class CutoffTooSmall(NumericalError):
    """Harmonic cutoff too small: the series tail is still significant."""
