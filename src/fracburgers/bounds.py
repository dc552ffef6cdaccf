"""Closed-form bounds on the blow-up time and the comparison envelopes.

The upper bound b(alpha) = (1/Gamma(2-alpha))^(1/alpha) comes from the
supersolution w(t) = b/(b-t) sitting below the blowing-up solution; the lower
bound comes from a delayed-pole subsolution z(t) sitting above it. The two
printed expressions for the lower bound (the direct 1/b - (1+eta)d form and
the c_delta^((1-alpha)/alpha) form) are algebraically equal; this module
computes both and refuses to return if they disagree, since a mismatch can
only mean an implementation bug.

Note on naming: the symbol b is used for two different constants in the two
bound constructions. Here `upper_bound_b` is the supersolution pole and the
subsolution constants live inside :class:`LowerBoundConstants` as `a`, `b`;
no bare `b` is exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frac_ops import FractionalOrder
from .specfun import euler_mascheroni, log_gamma

__all__ = [
    "ConsistencyError",
    "LowerBoundConstants",
    "upper_bound_b",
    "limit_upper_bound",
    "lower_bound_constants",
    "lower_bound_T",
    "envelope_w",
    "envelope_z",
    "monotonicity_scan_b",
]


class ConsistencyError(RuntimeError):
    """Internal cross-check between two equivalent formulas failed."""


def upper_bound_b(order: FractionalOrder) -> float:
    """Upper bound (1/Gamma(2-alpha))^(1/alpha) on the blow-up time.

    Returns exactly 1.0 at alpha = 1 (the classical blow-up time for a
    unitary initial slope), since log Gamma(1) = 0 exactly.
    """
    a = order.alpha
    # exp(-log(Gamma(2-a))/a) keeps full precision for small alpha, where the
    # 1/alpha exponent amplifies any error in the Gamma value.
    return math.exp(-log_gamma(2.0 - a) / a)


def limit_upper_bound() -> float:
    """The alpha -> 0 limit exp(1 - gamma) = 1.52620511... of the upper bound."""
    return math.exp(1.0 - euler_mascheroni())


@dataclass(frozen=True)
class LowerBoundConstants:
    """Constants of the subsolution construction for given (alpha, delta)."""

    alpha: float
    delta: float
    kappa: float
    eta: float
    d: float
    a: float
    b: float
    T: float
    c_delta: float


def lower_bound_constants(order: FractionalOrder, delta: float) -> LowerBoundConstants:
    """Compute the subsolution constants and cross-check the two T formulas.

    alpha = 1 is accepted as the closure of the formulas: T is then exactly
    1/(1+delta).

    Raises :class:`ConsistencyError` if the directly assembled horizon
    T = 1/b - (1+eta)d and its closed form
    c_delta^((1-alpha)/alpha) / (Gamma(2-alpha)^(1/alpha) (1+delta))
    disagree beyond 1e-10 relative: they are provably equal, so disagreement
    means the implementation is wrong. Also raises it when a constant leaves
    double precision: for small alpha (below about 0.0075 at delta = 0.5) d
    underflows or a overflows, so T is below the smallest double; for a
    delta far from 1 (1e-300 or 1e200, say) eta or c_delta over- or
    underflows.
    """
    a = order.alpha
    delta = float(delta)
    if not np.isfinite(delta) or delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta!r}")

    # sqrt(1 + delta) - 1 without the cancellation of the subtraction
    kappa = math.expm1(0.5 * math.log1p(delta))
    lg = log_gamma(2.0 - a)
    try:
        eta = (1.0 + kappa) ** 2 / kappa ** 2
        d = math.exp(-(lg + math.log(kappa * eta * (1.0 + eta))) / a)
        const_a = math.exp(lg - (1.0 - a) * math.log(d))
        c_delta = kappa ** 3 / ((1.0 + kappa) ** 2 * (1.0 + 2.0 * kappa + 2.0 * kappa ** 2))
        T_closed = math.exp(((1.0 - a) / a) * math.log(c_delta) - lg / a) / (1.0 + delta)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        # log(0) of an underflowed d (T is then below the smallest double), or
        # eta or c_delta out of range at an extreme delta
        raise ConsistencyError(
            f"lower-bound constants leave double precision (alpha={a}, delta={delta}): "
            f"an intermediate constant over- or underflows"
        ) from exc
    const_b = (1.0 + kappa) * const_a
    T = 1.0 / const_b - (1.0 + eta) * d
    if not math.isfinite(T) or T <= 0.0:
        raise ConsistencyError(f"lower-bound horizon T = {T} is not positive")
    if abs(T - T_closed) > 1e-10 * abs(T_closed):
        raise ConsistencyError(
            f"lower-bound horizon mismatch: direct {T!r} vs closed form {T_closed!r} "
            f"(alpha={a}, delta={delta})"
        )
    return LowerBoundConstants(a, delta, kappa, eta, d, const_a, const_b, T, c_delta)


def lower_bound_T(order: FractionalOrder, delta: float) -> float:
    """Lower bound on the blow-up time for a unitary initial slope."""
    return lower_bound_constants(order, delta).T


def envelope_w(order: FractionalOrder, t: float) -> float:
    """Supersolution-comparison envelope w(t) = b/(b - t), below the solution.

    w(0) = 1 and w diverges as t -> b = upper_bound_b(alpha).
    """
    t = float(t)
    b = upper_bound_b(order)
    if t < 0.0 or t >= b:
        raise ValueError(f"t must lie in [0, {b}), got {t}")
    return b / (b - t)


def envelope_z(order: FractionalOrder, delta: float, t: float) -> float:
    """Subsolution-comparison envelope z(t), above the solution on [0, T).

    z(0) = 1, z is strictly increasing, and its pole sits at 1/b, past the
    lower-bound horizon T of :func:`lower_bound_constants`.
    """
    t = float(t)
    c = lower_bound_constants(order, delta)
    if t < 0.0 or t >= 1.0 / c.b:
        raise ValueError(f"t must lie in [0, {1.0 / c.b}), got {t}")
    return c.b / (c.a * (1.0 - c.b * t)) + 1.0 - c.b / c.a


def monotonicity_scan_b(samples: int) -> bool:
    """Whether alpha -> upper_bound_b(alpha) is strictly decreasing on [0.01, 0.99]."""
    if samples < 10:
        raise ValueError(f"samples must be >= 10, got {samples}")
    alphas = np.linspace(0.01, 0.99, samples)
    vals = np.array([upper_bound_b(FractionalOrder(a)) for a in alphas])
    return bool(np.all(np.diff(vals) < 0.0))
