"""Closed-form bounds on the blow-up time and the comparison envelopes.

The upper bound b(alpha) = (1/Gamma(2-alpha))^(1/alpha) comes from the
supersolution w(t) = b/(b-t) sitting below the blowing-up solution; the lower
bound comes from a delayed-pole subsolution z(t) sitting above it. The two
printed expressions for the lower bound (the direct 1/b - (1+eta)d form and
the c_delta^((1-alpha)/alpha) form) are algebraically equal; this module
returns the closed form, which does not cancel, and refuses to return if the
direct form disagrees with it beyond the roundoff of its two terms, since a
mismatch can only mean an implementation bug.

Note on naming: the symbol b is used for two different constants in the two
bound constructions. Here `upper_bound_b` is the supersolution pole and the
subsolution constants live inside :class:`LowerBoundConstants` as `a`, `b`;
no bare `b` is exposed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .frac_ops import FractionalOrder
from .specfun import euler_mascheroni, log_gamma

__all__ = [
    "ConsistencyError",
    "LowerBoundConstants",
    "upper_bound_b",
    "limit_upper_bound",
    "comparison_lower_bound",
    "lower_bound_constants",
    "lower_bound_T",
    "envelope_w",
    "envelope_z",
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


def comparison_lower_bound(order: FractionalOrder) -> float:
    """Lower bound T_cmp = (Gamma(1+alpha)/4)^(1/alpha) on the blow-up time of v(0) = 1.

    Proof. v = 1 + I^alpha[v^2] with a positive kernel, and v is
    nondecreasing, so v(t) <= 1 + c v(t)^2 with c = t^alpha / Gamma(1+alpha),
    the kernel's integral over [0, t]. While c < 1/4 this confines the
    continuous v to the branch v <= 2 / (1 + sqrt(1 - 4c)) <= 2 through
    v(0) = 1: v stays finite for t < T_cmp. At alpha = 1 it is 1/4.

    Evaluated as exp((lgamma(1+alpha) - ln 4)/alpha). Raises ValueError
    naming alpha below the smallest normal double (alpha < ~0.00196).
    """
    a = order.alpha
    t_cmp = math.exp((log_gamma(1.0 + a) - math.log(4.0)) / a)
    if not t_cmp >= sys.float_info.min:
        raise ValueError(f"the comparison lower bound underflows at alpha {a!r}: below the smallest normal double")
    return t_cmp


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


def _outside_double_precision(alpha: float, delta: float) -> ConsistencyError:
    return ConsistencyError(
        f"lower-bound constants leave double precision (alpha={alpha}, delta={delta}): "
        f"an intermediate constant over- or underflows"
    )


def lower_bound_constants(order: FractionalOrder, delta: float) -> LowerBoundConstants:
    """Compute the subsolution constants and cross-check the two T formulas.

    alpha = 1 is accepted as the closure of the formulas: T is then exactly
    1/(1+delta).

    T is the closed form c_delta^((1-alpha)/alpha) / (Gamma(2-alpha)^(1/alpha) (1+delta)).
    Raises :class:`ConsistencyError` if the direct 1/b - (1+eta)d, which
    cancels as delta grows, differs from it by more than 1e-10 / b, the size
    of the terms it subtracts: the two are provably equal, so disagreement
    means the implementation is wrong. Also raises it when a constant leaves
    double precision: for small alpha (below about 0.0075 at delta = 0.5) d
    underflows or a overflows, so T is below the smallest double; for a
    delta far from 1 (1e-300 or 1e200, say) eta or c_delta over- or
    underflows. A d or T below the smallest normal double (subnormal, with
    digits lost, as at alpha = 0.05 with delta = 1e-5 or 1e31) counts as
    leaving it too.
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
        raise _outside_double_precision(a, delta) from exc
    if not min(d, T_closed) >= sys.float_info.min:
        # a subnormal d or T has lost digits, or T underflowed to 0
        raise _outside_double_precision(a, delta)
    const_b = (1.0 + kappa) * const_a
    T_direct = 1.0 / const_b - (1.0 + eta) * d
    if not abs(T_direct - T_closed) <= 1e-10 / const_b:
        raise ConsistencyError(
            f"lower-bound horizon mismatch: direct {T_direct!r} vs closed form {T_closed!r} "
            f"(alpha={a}, delta={delta})"
        )
    return LowerBoundConstants(a, delta, kappa, eta, d, const_a, const_b, T_closed, c_delta)


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
