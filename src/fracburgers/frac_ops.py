"""Discrete fractional operators on uniform time grids.

Implements the piecewise-linear (L1) discretization of the left Caputo
derivative, the product-trapezoidal Riemann-Liouville fractional integral,
and closed-form evaluation of the right Riemann-Liouville derivative of the
power test function (1 - t/T)^lam together with its two integrals.

Both quadratures are exact on piecewise-linear data, which is what makes the
exactness contracts in the tests sharp.

Every weight formula of the package lives here: one power-increment table
(k+1)^p - k^p gives the L1 weights (p = 1 - alpha) and the product-rectangle
predictor weights (p = alpha), beside the product-trapezoid interior and
left-boundary tables; all of them are differences of shifted slices of one
power table k^p. The tables are rebuilt per call, not cached. The
marching solvers (fode, pde) take their memory terms from one incremental
primitive, :class:`LaggedSum`; :func:`caputo_left` and
:func:`rl_fractional_integral` evaluate the same sums as batch convolutions,
an independent summation path the tests and the Volterra residual compare the
marches against. The memory sums are the reference O(N^2) kind: no history
compression, no windowing. All reductions run in a fixed order on
fixed-shape arrays, so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .specfun import gamma

__all__ = [
    "FractionalOrder",
    "TimeGrid",
    "SampledFunction",
    "PowerTestFunction",
    "LaggedSum",
    "caputo_left",
    "classical_derivative",
    "rl_fractional_integral",
    "phi_value",
    "rl_right_derivative_phi",
    "phi_test_integrals",
    "phi_test_integrals_quadrature",
    "phi_test_integrals_elementary",
]


@dataclass(frozen=True)
class FractionalOrder:
    """Order alpha of the time-fractional derivative, 0 < alpha <= 1.

    alpha = 1 is the sanctioned classical-limit value; the Caputo operator
    itself rejects it (use :func:`classical_derivative`), but solvers and
    bounds accept it as the documented closure of their formulas.
    """

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not np.isfinite(a) or not 0.0 < a <= 1.0:
            raise ValueError(f"fractional order must lie in (0, 1], got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    @property
    def is_classical(self) -> bool:
        return self.alpha == 1.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_j = j * step for j = 0..count."""

    step: float
    count: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.step) or self.step <= 0.0:
            raise ValueError(f"step must be > 0, got {self.step!r}")
        if int(self.count) != self.count or self.count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "count", int(self.count))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.count + 1, dtype=float) * self.step

    @property
    def horizon(self) -> float:
        return self.count * self.step


@dataclass(frozen=True)
class SampledFunction:
    """Real values attached to the nodes of a :class:`TimeGrid`."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != self.grid.count + 1:
            raise ValueError(
                f"expected {self.grid.count + 1} values for the grid, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must all be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn) -> "SampledFunction":
        return cls(grid, np.array([fn(t) for t in grid.times], dtype=float))

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def value_at(self, t: float) -> float:
        """Linear interpolation between nodes; t must lie in [0, horizon]."""
        t = float(t)
        if t < 0.0 or t > self.grid.horizon * (1.0 + 1e-12):
            raise ValueError(f"t={t} outside the sampled domain [0, {self.grid.horizon}]")
        return float(np.interp(t, self.times, self.values))


def _powers(p: float, count: int) -> np.ndarray:
    """k^p for k = 0..count; the weight tables below are differences of it."""
    return np.arange(count + 1, dtype=float) ** p


def _power_increments(p: float, count: int) -> np.ndarray:
    """(k+1)^p - k^p for k = 0..count-1.

    With p = 1 - alpha these are the L1 weights b_k; with p = alpha they are
    the product-rectangle (predictor) weights of lag k + 1.
    """
    q = _powers(p, count)
    return q[1:] - q[:-1]


def _pt_interior_weights(alpha: float, count: int) -> np.ndarray:
    """Product-trapezoid interior weights d_k = (k+1)^(a+1) + (k-1)^(a+1) - 2k^(a+1), k >= 1."""
    q = _powers(alpha + 1.0, count + 1)
    return q[2:] + q[:-2] - 2.0 * q[1:-1]


def _pt_left_boundary_weights(alpha: float, count: int) -> np.ndarray:
    """Weight of g(t_0) in the product-trapezoid rule targeted at t_n, n = 1..count."""
    n = np.arange(1, count + 1, dtype=float)
    return _powers(alpha + 1.0, count)[:-1] - _powers(alpha, count)[1:] * (n - alpha - 1.0)


class LaggedSum:
    """Running lagged sum s_n = sum_{k=1}^{n} w_k g_{n-k} over a growing history.

    The history g_0, g_1, ... gains one entry per step (a scalar, or a row of
    the given shape) in a buffer preallocated for len(weights) entries;
    weights[k - 1] is w_k. An empty history sums to 0. Every marching scheme
    in the package takes its memory term from here.
    """

    __slots__ = ("_reversed", "_history", "_size")

    def __init__(self, weights: np.ndarray, shape: tuple[int, ...] = ()):
        # w_K..w_1: s_n dots the last n of these with g_0..g_{n-1}
        self._reversed = np.ascontiguousarray(weights[::-1], dtype=float)
        self._history = np.empty((self._reversed.size, *shape))
        self._size = 0

    def append(self, g) -> None:
        self._history[self._size] = g
        self._size += 1

    def value(self):
        """s_n for the n entries appended so far."""
        n = self._size
        return np.dot(self._reversed[self._reversed.size - n :], self._history[:n])


def caputo_left(f: SampledFunction, order: FractionalOrder) -> SampledFunction:
    """L1 discretization of the left Caputo derivative of order alpha in (0, 1).

    Returns the exact Caputo derivative of the piecewise-linear interpolant of
    f at the nodes t_1..t_N; node t_0 carries 0 by convention.
    """
    if order.is_classical:
        raise ValueError("alpha = 1 is not a Caputo order here; use classical_derivative")
    n = f.grid.count
    h = f.grid.step
    df = np.diff(f.values)
    b = _power_increments(1.0 - order.alpha, n)
    out = np.zeros(n + 1)
    out[1:] = np.convolve(df, b)[:n]
    out[1:] *= h ** (-order.alpha) / gamma(2.0 - order.alpha)
    return SampledFunction(f.grid, out)


def classical_derivative(f: SampledFunction) -> SampledFunction:
    """One-sided backward differences at t_1..t_N; 0 at t_0 by convention."""
    out = np.zeros(f.grid.count + 1)
    out[1:] = np.diff(f.values) / f.grid.step
    return SampledFunction(f.grid, out)


def rl_fractional_integral(g: SampledFunction, order: FractionalOrder) -> SampledFunction:
    """Riemann-Liouville fractional integral of order alpha in (0, 1].

    Product-trapezoidal rule: exact (up to roundoff) for piecewise-linear g.
    At alpha = 1 the weights reduce to the ordinary trapezoid rule.
    """
    alpha = order.alpha
    n = g.grid.count
    h = g.grid.step
    vals = g.values
    scale = h ** alpha / gamma(alpha + 2.0)
    out = np.zeros(n + 1)
    inner = np.zeros(n)
    if n >= 2:
        d = _pt_interior_weights(alpha, n)
        inner[1:] = np.convolve(vals[1:n], d[: n - 1])[: n - 1]
    a0 = _pt_left_boundary_weights(alpha, n)
    out[1:] = scale * (a0 * vals[0] + inner + vals[1:])
    return SampledFunction(g.grid, out)


@dataclass(frozen=True)
class PowerTestFunction:
    """The compactly supported power profile (1 - t/T)^lam, zero past t = T."""

    exponent: float
    horizon: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.exponent) or self.exponent < 2.0:
            raise ValueError(f"exponent must be >= 2, got {self.exponent!r}")
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")
        object.__setattr__(self, "exponent", float(self.exponent))
        object.__setattr__(self, "horizon", float(self.horizon))


def phi_value(phi: PowerTestFunction, t: float) -> float:
    """Evaluate the power test function, including its zero extension past T."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t > phi.horizon:
        return 0.0
    return (1.0 - t / phi.horizon) ** phi.exponent


def rl_right_derivative_phi(phi: PowerTestFunction, order: FractionalOrder, t: float) -> float:
    """Right Riemann-Liouville derivative of the power test function at t < T.

    Closed form Gamma(lam+1)/Gamma(lam+1-alpha) * T^(-alpha) * (1-t/T)^(lam-alpha),
    validated against high-order quadrature of the defining integral followed
    by numerical differentiation (see the tests).
    """
    if order.is_classical:
        raise ValueError("right-RL derivative requires alpha in (0, 1)")
    t = float(t)
    lam, T = phi.exponent, phi.horizon
    if t < 0.0 or t >= T:
        raise ValueError(f"t must lie in [0, T), got t={t} with T={T}")
    a = order.alpha
    return gamma(lam + 1.0) / gamma(lam + 1.0 - a) * T ** (-a) * (1.0 - t / T) ** (lam - a)


def _check_phi_gamma_args(phi: PowerTestFunction, order: FractionalOrder) -> tuple[float, float, float]:
    lam, T, a = phi.exponent, phi.horizon, order.alpha
    if order.is_classical:
        raise ValueError("test-function integrals require alpha in (0, 1)")
    if lam <= 2.0 * a - 1.0:
        raise ValueError(f"need exponent > 2*alpha - 1, got exponent={lam}, alpha={a}")
    for arg in (lam - a, lam - 2.0 * a + 1.0, lam + 1.0 - 2.0 * a):
        if arg <= 0.0:
            raise ValueError(f"Gamma argument {arg} is not positive for exponent={lam}, alpha={a}")
    return lam, T, a


def phi_test_integrals(phi: PowerTestFunction, order: FractionalOrder) -> tuple[float, float]:
    """Closed-form values of the two test-function integrals.

    First: integral over [0, T] of the right-RL derivative of phi.
    Second: integral over [0, T] of |right-RL derivative|^2 / phi.
    Returned exactly as the stated closed forms; see
    :func:`phi_test_integrals_quadrature` for the independent numeric route,
    which is known to disagree with these values by an O(1) factor (the
    T-scaling T^(1-alpha), T^(1-2alpha) agrees). The misprint is in the
    prefactor: where the right-RL derivative carries
    Gamma(lam+1)/Gamma(lam+1-alpha), these forms use
    lam*Gamma(lam-alpha)/Gamma(lam+1-2alpha).
    :func:`phi_test_integrals_elementary` integrates the derivative in closed
    form and matches the quadrature route. The values here are kept as
    printed; the tests report the discrepancy rather than resolving it.
    """
    lam, T, a = _check_phi_gamma_args(phi, order)
    i1 = lam * gamma(lam - a) / ((lam - a + 1.0) * gamma(lam - 2.0 * a + 1.0)) * T ** (1.0 - a)
    i2 = (
        lam ** 2
        / (lam + 1.0 - 2.0 * a)
        * (gamma(lam - a) / gamma(lam + 1.0 - 2.0 * a)) ** 2
        * T ** (1.0 - 2.0 * a)
    )
    return i1, i2


def phi_test_integrals_quadrature(
    phi: PowerTestFunction, order: FractionalOrder
) -> tuple[float, float]:
    """Adaptive quadrature of the same two integrals via rl_right_derivative_phi."""
    lam, T, _ = _check_phi_gamma_args(phi, order)

    def dphi(t: float) -> float:
        return rl_right_derivative_phi(phi, order, t)

    i1, _ = quad(dphi, 0.0, T, limit=200)
    i2, _ = quad(lambda t: dphi(t) ** 2 / phi_value(phi, t), 0.0, T, limit=200)
    return i1, i2


def phi_test_integrals_elementary(phi: PowerTestFunction, order: FractionalOrder) -> tuple[float, float]:
    """The same two integrals from the elementary antiderivative of the right-RL derivative.

    With C = Gamma(lam+1)/Gamma(lam+1-alpha) the derivative is
    C T^(-alpha) (1-t/T)^(lam-alpha), so the integrals are
    Gamma(lam+1)/Gamma(lam+2-alpha) T^(1-alpha) and
    C^2 T^(1-2alpha)/(lam+1-2alpha).
    """
    lam, T, a = _check_phi_gamma_args(phi, order)
    i1 = gamma(lam + 1.0) / gamma(lam + 2.0 - a) * T ** (1.0 - a)
    i2 = (gamma(lam + 1.0) / gamma(lam + 1.0 - a)) ** 2 * T ** (1.0 - 2.0 * a) / (lam + 1.0 - 2.0 * a)
    return i1, i2
