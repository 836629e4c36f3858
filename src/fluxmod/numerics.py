"""Numerical building blocks shared across layers.

Chebyshev interpolation on [-1, 1] with the degree chosen at runtime
(Trefethen, *Approximation Theory and Approximation Practice*, 2013): the
transmon curve in sqrt(EJ_eff) and the sweet-spot solver's proxy of the ac
slope both sample at the Chebyshev-Lobatto points cos(pi j / n) and double
n, reusing every earlier sample, until the last coefficients are
negligible; Clenshaw recurrence sums such a series, in place on buffers
the caller may keep.  A bracketed Newton iteration polishes many roots of
one batched function at once, in groups that each stop on their own.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import CutoffTooSmall, NumericalError

__all__ = [
    "lobatto_points", "lobatto_coefficients", "interpolate", "clenshaw", "bracketed_newton",
]


def lobatto_points(n: int, odd_only: bool = False) -> np.ndarray:
    """The points cos(pi j / n), j = 0..n, from 1 down to -1.

    With ``odd_only`` just the odd j, the points that degree n adds to
    degree n / 2.
    """
    j = np.arange(1, n, 2) if odd_only else np.arange(n + 1)
    return np.cos(np.pi * j / n)


def lobatto_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through ``values`` at
    lobatto_points(n), n + 1 values along the last axis, one row each."""
    n = values.shape[-1] - 1
    # values at cos(pi j / n) are a real-even sequence of period 2n
    coeffs = np.fft.rfft(np.concatenate([values, values[..., -2:0:-1]], axis=-1)).real / n
    coeffs[..., [0, n]] *= 0.5
    return coeffs


def interpolate(
    sample: Callable[[np.ndarray], np.ndarray],
    tolerance: Callable[[np.ndarray], float],
    *,
    degree: int,
    max_degree: int,
    what: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev coefficients of ``sample`` from nested Lobatto samples.

    ``sample`` maps points x to values of shape (..., x.size), one row per
    function sampled together.  Starting at ``degree``, the degree doubles
    until the last three coefficients of every row are at most
    ``tolerance(coefficients)``; each doubling samples only the new odd
    points.  Past ``max_degree`` it raises CutoffTooSmall naming ``what``.
    Returns the coefficients (degree along the last axis) and the values
    at lobatto_points(degree).
    """
    n = degree
    values = sample(lobatto_points(n))
    while True:
        coeffs = lobatto_coefficients(values)
        tail, limit = np.max(np.abs(coeffs[..., -3:])), tolerance(coeffs)
        if tail <= limit:
            return coeffs, values
        if 2 * n > max_degree:
            raise CutoffTooSmall(
                f"{what}: Chebyshev tail {tail:.2e} still above {limit:.2e} at degree {n}"
            )
        merged = np.empty(values.shape[:-1] + (2 * n + 1,))
        merged[..., 0::2] = values
        merged[..., 1::2] = sample(lobatto_points(2 * n, odd_only=True))
        values, n = merged, 2 * n


def clenshaw(
    coeffs: np.ndarray,
    x: np.ndarray,
    *,
    out: np.ndarray | None = None,
    work: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Sum of coeffs[k] T_k(x) over k, at every x.

    The recurrence b_k = c_k + 2 x b_(k+1) - b_(k+2) runs in place on three
    buffers of x's shape, beside a fourth that holds 2 x; ``work`` may
    supply those four, and ``out`` the array the sum is written to, so a
    caller that keeps its buffers allocates nothing.  ``out`` may be x
    itself but none of ``work``; both are fresh by default.
    """
    x2, b1, b2, tmp = (np.empty(x.shape) for _ in range(4)) if work is None else work
    if out is None:
        out = np.empty(x.shape)
    if coeffs.size == 1:
        out.fill(coeffs[0])
        return out
    np.multiply(x, 2.0, out=x2)
    b1.fill(coeffs[-1])
    b2.fill(0.0)
    for c in coeffs[-2:0:-1]:
        np.multiply(x2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    # f = c_0 + x b_1 - b_2
    np.multiply(x, b1, out=out)
    out -= b2
    out += coeffs[0]
    return out


def bracketed_newton(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    x: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    sign_lo: np.ndarray,
    xtol: float,
    *,
    what: str,
    max_steps: int = 100,
    groups: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Roots of a batched function, one per bracket [lo, hi], polished together.

    ``evaluate(x)`` returns (r, jac, *extra): the residual at every x, a
    Jacobian estimate for the Newton step, and anything the caller wants
    back from the last evaluation.  ``sign_lo`` holds the sign of r at each
    bracket's low end.  Every residual shrinks its root's bracket, and a
    Newton step that would leave the bracket bisects it instead.
    ``groups`` labels each root with a non-negative integer, by default
    one label for all.  A group stops at the first evaluation where every
    step of its roots is below ``xtol``: its roots keep that x and take no
    further step, while the other groups go on.  Returns (x, extra) from
    the evaluation where the last group stops, so when ``evaluate`` gives
    each root's values independently of the others, every group gets the
    answer it would get alone; raises NumericalError naming ``what`` after
    ``max_steps``.
    """
    done = np.zeros(x.size, dtype=bool)
    for _ in range(max_steps):
        r, jac, *extra = evaluate(x)
        below = r * sign_lo > 0.0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        newton = x - np.divide(r, jac, out=np.full_like(r, np.inf), where=jac != 0.0)
        step = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi)) - x
        step[(r == 0.0) | done] = 0.0
        unsettled = ~(np.abs(step) < xtol)
        if not unsettled.any():
            return x, tuple(extra)
        if groups is not None:
            done |= (np.bincount(groups, weights=unsettled, minlength=1) == 0)[groups]
            step[done] = 0.0
        x = x + step
    raise NumericalError(f"{what} did not reach xtol={xtol:g} in {max_steps} steps")
