"""Special-function primitives used throughout the package.

Domain-checked wrappers around the standard library's ``math.gamma`` and
``math.lgamma``. The contracts (relative 1e-13 for gamma and absolute 4e-15
for log_gamma on (0.5, 3], absolute 1e-14 for the Euler-Mascheroni constant,
checked against mpmath) matter because the blow-up bound formulas raise
gamma values to 1/alpha powers, which amplifies any error as alpha -> 0.
"""

from __future__ import annotations

import math

__all__ = ["gamma", "log_gamma", "euler_mascheroni"]


def _check_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} requires a finite argument > 0, got {x!r}")
    return x


def gamma(x: float) -> float:
    """Euler Gamma function for x > 0; inf where it overflows (x > 171.62 or x < 5.6e-309)."""
    x = _check_positive(x, "gamma")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    return math.lgamma(_check_positive(x, "log_gamma"))


def euler_mascheroni() -> float:
    """The Euler-Mascheroni constant, rounded to the nearest double."""
    return 0.5772156649015329
