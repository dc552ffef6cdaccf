"""Discrete fractional operators on uniform time grids.

Implements the piecewise-linear (L1) discretization of the left Caputo
derivative, the product-trapezoidal Riemann-Liouville fractional integral,
and the right Riemann-Liouville derivative of the power test function
(1 - t/T)^lam together with its two integrals, in elementary closed form.

Both quadratures are exact on piecewise-linear data, which is what makes the
exactness contracts in the tests sharp.

Every weight formula of the package lives here: one power-increment table
(k+1)^p - k^p, evaluated as k^p expm1(p log1p(1/k)) so that it does not
cancel, gives the L1 weights (p = 1 - alpha) and the product-rectangle
predictor weights (p = alpha); the product-trapezoid interior table is a
second difference of k^(a+1), which cancels about k^2-fold in closed form,
so it is summed as a binomial series of positive terms. No left-boundary
weight is tabulated: the product rules are exact on constants, so callers
sum g - g(t_0) and add g(t_0) times the closed-form weight sum.

The marching solvers (fode, pde) take their memory terms from one
incremental primitive, :class:`LaggedSum`, which evaluates the full O(N^2)
sum in O(N log^2 N) by an exact blocked-FFT reordering (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): every pair of history entry
and target is still summed once, with no history compression and no
windowing, on buffers that grow with the march. Its weight tables live in a
:class:`LagTables`, which marches at one order share and which grows to the
largest of them.
:func:`caputo_left` and :func:`rl_fractional_integral` evaluate the same sums
in one batch, as one full-length zero-padded real FFT
(:func:`_causal_convolution`, O(N log N)) that shares no blocking with
:class:`LaggedSum`, so the tests and the Volterra residual that compare the
marches against them check the blocking too; the tests check the batch path
itself against ``np.convolve``. All reductions run in a fixed order on
fixed-shape arrays, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .specfun import gamma, log_gamma

__all__ = [
    "FractionalOrder",
    "TimeGrid",
    "SampledFunction",
    "PowerTestFunction",
    "LagTables",
    "LaggedSum",
    "caputo_left",
    "classical_derivative",
    "rl_fractional_integral",
    "rl_right_derivative_phi",
    "phi_test_integrals",
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

    @classmethod
    def spanning(cls, step: float, horizon: float) -> "TimeGrid":
        """The grid of round(horizon / step) steps, at least one, of size `step`.

        This is the step-count rule of every march. Raises ValueError unless
        step, horizon and their ratio are all finite and step, horizon > 0.
        A finite ratio is not capped: there is no step budget.
        """
        for name, value in (("step", step), ("horizon", horizon)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        ratio = horizon / step
        if not math.isfinite(ratio):
            raise ValueError(f"horizon / step must be finite, got {horizon!r} / {step!r}")
        return cls(step, max(1, round(ratio)))

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

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def value_at(self, t: float) -> float:
        """Linear interpolation between nodes; t must lie in [0, horizon]."""
        t = float(t)
        if t < 0.0 or t > self.grid.horizon * (1.0 + 1e-12):
            raise ValueError(f"t={t} outside the sampled domain [0, {self.grid.horizon}]")
        return float(np.interp(t, self.times, self.values))


def _power_increments(p: float, count: int) -> np.ndarray:
    """(k+1)^p - k^p for k = 0..count-1.

    With p = 1 - alpha these are the L1 weights b_k; with p = alpha they are
    the product-rectangle (predictor) weights of lag k + 1. The difference of
    the two powers cancels about k/p-fold, so for k >= 1 the table takes the
    equal form k^p expm1(p log1p(1/k)), which keeps every entry within a few
    ulps; the entry at k = 0 is 1.
    """
    out = np.ones(count)
    k = np.arange(1.0, count)
    out[1:] = np.power(k, p) * np.expm1(p * np.log1p(1.0 / k))
    return out


def _pt_weights(alpha: float, count: int) -> np.ndarray:
    """Product-trapezoid interior weights d_k, k = 1..count.

    d_k = (k+1)^(a+1) + (k-1)^(a+1) - 2k^(a+1) is the weight of g(t_{n-k})
    at target t_n. The closed form is a second difference of k^(a+1) and
    cancels about k^2-fold. With x = 1/k and c_j = |C(a+1, j)| (C(a+1, j)
    has the sign of (-1)^j for j >= 2), it is d_k = 2 k^(a+1) E, where E
    sums the positive terms c_j x^j over even j >= 2. Successive terms shrink
    at least by x^2, so orders up to 58 for k <= 16 and up to 16 beyond leave
    tails below 2^-56. At k = 1: d_1 = 2 (2^a - 1) from expm1.
    """
    ratios = (np.arange(2.0, 58.0) - alpha - 1.0) / np.arange(3.0, 59.0)
    c = 0.5 * (alpha + 1.0) * alpha * np.cumprod(np.concatenate(([1.0], ratios)))  # c_2..c_58
    k = np.arange(2, count + 1, dtype=float)
    x = 1.0 / k
    out = np.empty(count)
    even = out[1:]  # E at k = 2..count
    even[:15] = (x[:15, None] ** np.arange(0.0, 58.0, 2.0)) @ c[0::2]  # k = 2..16
    y = x[15:] * x[15:]  # Horner in x^2 from order 16 down, in place
    tail = even[15:]
    tail[:] = c[14]
    for cj in c[12::-2].tolist():
        tail *= y
        tail += cj
    even *= 2.0
    even *= np.power(k, alpha - 1.0, out=k)  # k^(a+1) x^2: the series start at order 2
    out[:1] = 2.0 * np.expm1(alpha * np.log(2.0))
    return out


_BLOCK = 128  # base block B of LaggedSum: lags below it are summed directly
_FFT_ENTRIES = 1 << 16  # complex entries per column chunk of a block transform


class LagTables:
    """The weight tables of one weight kind, shared by every :class:`LaggedSum` built on them.

    ``weights(m)`` returns w_1..w_m, as one row or as several rows (shape
    (rows, m)); its entries must depend on the lag k alone, not on m, so that
    a table of any length holds the same values. The object holds the three
    things a march reads and never writes: the lag table, the near slices
    w_r..w_1 of the direct part, and one spectrum per block level. Marches
    read them through :class:`LaggedSum`; marches of one weight kind (the
    rungs of a blow-up ladder) share one object, so each table is computed
    once for all of them.

    Everything grows with the largest request: the lag table fourfold from
    1024 lags, capped at 2 * the capacity of the march that asks (it never
    shrinks, since a march asks for at most 2 * capacity - 1 lags), the near
    slices once, at the first march, and the spectra per level reached. A
    spectrum reads lags 1..2L-1 only, so it is the same whichever march adds
    it.
    """

    __slots__ = ("_weights", "_table", "_near", "_spectra")

    def __init__(self, weights: Callable[[int], np.ndarray]):
        self._weights = weights
        self._table = np.empty(0)
        self._near: list[np.ndarray] = []
        self._spectra: list[np.ndarray] = []  # level l: (rows, B 2^l + 1, 1)

    def lags(self, count: int, capacity: int) -> np.ndarray:
        """w_1..w_count from the cached table, grown for a march of `capacity` when too short."""
        if count > self._table.shape[-1]:
            grown = min(max(4 * self._table.shape[-1], 1024), 2 * capacity)
            self._table = np.asarray(self._weights(max(count, grown)), dtype=float)
        return self._table[..., :count]

    def near_slices(self, capacity: int) -> list[np.ndarray]:
        """w_r..w_1 for r = 0..B-1, each C-contiguous (a copy for several weight rows)."""
        if not self._near:
            near = np.ascontiguousarray(self.lags(_BLOCK - 1, capacity)[..., ::-1])  # w_{B-1}..w_1
            self._near = [np.ascontiguousarray(near[..., _BLOCK - 1 - r :]) for r in range(_BLOCK)]
        return self._near

    def spectrum(self, level: int, capacity: int) -> np.ndarray:
        """The spectrum of the lags of block level `level`, shape (rows, L + 1, 1)."""
        if level == len(self._spectra):  # a march reaches its levels in increasing order
            size = _BLOCK << level
            # rfft pads w_1..w_{2L-1} with one zero: the segment w_0..w_{2L-1}
            # rotated by one lag, so the block outputs are read one index early
            spectrum = np.fft.rfft(self.lags(2 * size - 1, capacity), 2 * size)
            self._spectra.append(spectrum.reshape(-1, size + 1, 1))
        return self._spectra[level]


class LaggedSum:
    """Running lagged sum s_n = sum_{k=1}^{n} w_k g_{n-k} over a growing history.

    The history g_0, g_1, ... gains one entry per step (a scalar, or a row of
    the given shape), up to `capacity` entries, and :meth:`value` gives s_n
    for n < capacity, the sums a march reads before each append; the last
    entry is kept but feeds no sum. The weights w_k come from `tables`
    (:class:`LagTables`), one row or several; with several rows,
    :meth:`value` returns one sum per row. A scalar history sums to Python
    floats, a row history to an ndarray. An empty history sums to 0. Every
    marching scheme in the package takes its memory term from here.

    The sum is the full one, reordered exactly in dyadic blocks (Hairer,
    Lubich & Schlichte 1985) so that n steps cost O(n log^2 n) instead of
    O(n^2):

    * near part: the lags inside the current base block of B = 128 entries,
      one direct dot of fewer than B terms;
    * far part: when the history length s reaches a multiple of B, with
      L = B * 2^v and v the 2-adic valuation of s / B, the block g[s-L:s] adds
      its contribution to the targets s..s+L-1 through one real FFT of length
      2L against w_0..w_{2L-1} (w_0 = 0). That weight segment is the same for
      every block of a level, so the tables hold one spectrum per level.

    Every (target, source) pair is counted exactly once, by the near part or
    by the one block pair whose halves separate them; nothing is compressed or
    windowed. The tables are shared and read only; what the march owns, the
    history and far-sum buffers, grows with the history, with `capacity` only
    the upper limit: both start at min(capacity, B) rows and double in place
    at a flush. With one weight row the far sums of future targets live in
    the history buffer's not-yet-written slots (slot n holds far[n] until g_n
    overwrites it), so they cost no memory of their own. A scalar history also
    copies the far sums of the current base block into one Python list at each
    flush, so that :meth:`value` adds floats; a row history keeps the ndarray
    add, which costs less than refreshing a list of rows at every flush.
    """

    __slots__ = ("_tables", "_capacity", "_near", "_history", "_far", "_far_block", "_size")

    def __init__(self, tables: LagTables, capacity: int, shape: tuple[int, ...] = ()):
        self._tables = tables
        self._capacity = capacity
        # the near part of s_n dots the last r = n mod B lags with g_{n-r}..g_{n-1};
        # the list is bound here so that value() reads it in one hop
        self._near = tables.near_slices(capacity)
        rows = min(capacity, _BLOCK)
        self._history = np.zeros((rows, *shape))
        weight_rows = self._near[0].shape[:-1]
        self._far = np.zeros((rows, *weight_rows, *shape)) if weight_rows else self._history
        # scalar histories: the far sums of the current base block as Python floats
        self._far_block = None if shape else self._far[:_BLOCK].tolist()
        self._size = 0

    def append(self, g) -> None:
        s = self._size
        self._history[s] = g
        self._size = s = s + 1
        if s % _BLOCK == 0:
            self._flush(s)
            if self._far_block is not None:  # targets s..s+B-1 receive no later block
                self._far_block = self._far[s : s + _BLOCK].tolist()

    def value(self):
        """s_n for the n entries appended so far.

        A row history gives an ndarray, one sum per weight row and history
        column. A scalar history gives Python floats: one float for one
        weight row, a list of one float per row for several. Each is the far
        sum plus the near dot, the same IEEE addition an ndarray add makes,
        so the float sums carry the bits of the ndarray ones.
        """
        s = self._size
        r = s % _BLOCK
        near = self._near[r].dot(self._history[s - r : s])
        if self._far_block is None:
            return self._far[s] + near
        if near.ndim:
            return list(map(operator.add, self._far_block[r], near.tolist()))
        return self._far_block[r] + near.tolist()

    def _flush(self, s: int) -> None:
        """Add the block of L entries ending at s to the far sums of targets s..s+L-1."""
        blocks = s // _BLOCK
        level = (blocks & -blocks).bit_length() - 1
        size = _BLOCK << level
        count = min(size, self._capacity - s)
        if count == 0:  # the last entry: no sum reads it
            return
        if len(self._history) < s + count:
            # one doubling reaches s + count, since a block is never longer
            # than the history before it; nothing holds a view of the buffers here
            rows = min(2 * len(self._history), self._capacity)
            self._history.resize((rows, *self._history.shape[1:]), refcheck=False)
            if self._far is not self._history:
                self._far.resize((rows, *self._far.shape[1:]), refcheck=False)
        spectrum = self._tables.spectrum(level, self._capacity)  # (rows, L + 1, 1): read one index early
        block = self._history[s - size : s].reshape(size, -1)
        far = self._far[s : s + count].reshape(count, len(spectrum), -1)
        chunk = max(1, _FFT_ENTRIES // (size + 1))
        for c in range(0, block.shape[1], chunk):
            g = np.fft.rfft(block[:, c : c + chunk], 2 * size, axis=0)
            for row, w in enumerate(spectrum):  # one row at a time bounds the temporaries
                tail = np.fft.irfft(w * g, 2 * size, axis=0)
                far[:, row, c : c + chunk] += tail[size - 1 : size - 1 + count]


def _smooth_length(n: int) -> int:
    """The smallest 5-smooth integer 2^i 3^j 5^k >= n, for n >= 1.

    For each 3^j 5^k below the best length so far, the smallest power-of-two
    multiple of it that reaches n is a candidate.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _causal_convolution(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The first n = len(g) entries of the full convolution of g with w[:n].

    Entry m is sum_{k=0}^{m} w_k g_{m-k}. One ``numpy.fft`` real FFT pair,
    zero-padded to the smallest 5-smooth length >= 2n - 1
    (:func:`_smooth_length`; the :class:`LaggedSum` blocks keep powers of two)
    so that nothing wraps around, gives the whole
    discrete convolution; its roundoff is normwise, a few ulps of
    max_m sum_k |w_k| |g_{m-k}| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 24.1), not entry by entry. It shares no
    blocking with :class:`LaggedSum`. Zero data give exact zeros: adding 0.0
    turns the -0.0 that signed-zero products can leave into 0.0 and changes
    no other value.
    """
    n = len(g)
    size = _smooth_length(2 * n - 1)
    out = np.fft.irfft(np.fft.rfft(g, size) * np.fft.rfft(w[:n], size), size)[:n]
    out += 0.0
    return out


def caputo_left(f: SampledFunction, order: FractionalOrder) -> SampledFunction:
    """L1 discretization of the left Caputo derivative of order alpha in (0, 1).

    Returns the exact Caputo derivative of the piecewise-linear interpolant of
    f at the nodes t_1..t_N; node t_0 carries 0 by convention. The L1 sum over
    the increments of f is one FFT convolution (:func:`_causal_convolution`),
    O(N log N) for N nodes.
    """
    if order.is_classical:
        raise ValueError("alpha = 1 is not a Caputo order here; use classical_derivative")
    n = f.grid.count
    h = f.grid.step
    out = np.zeros(n + 1)
    out[1:] = _causal_convolution(np.diff(f.values), _power_increments(1.0 - order.alpha, n))
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
    At alpha = 1 the weights reduce to the ordinary trapezoid rule. The
    interior sum over g - g(t_0) is one FFT convolution
    (:func:`_causal_convolution`, O(N log N) for N nodes); g(t_0) enters
    through the weight sum of the rule on constants, (alpha+1) n^alpha.
    """
    alpha = order.alpha
    n = g.grid.count
    h = g.grid.step
    g0 = g.values[0]
    vals = g.values - g0
    out = np.zeros(n + 1)
    inner = np.zeros(n)
    if n >= 2:
        inner[1:] = _causal_convolution(vals[1:n], _pt_weights(alpha, n))
    out[1:] = (alpha + 1.0) * g0 * np.power(np.arange(1.0, n + 1.0), alpha) + inner + vals[1:]
    out[1:] *= h ** alpha / gamma(alpha + 2.0)
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


def _gamma_ratio(x: float, y: float) -> float:
    """Gamma(x)/Gamma(y) in log space: both overflow from x = 171.62 on, the ratio need not."""
    return math.exp(log_gamma(x) - log_gamma(y))


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
    return _gamma_ratio(lam + 1.0, lam + 1.0 - a) * T ** (-a) * (1.0 - t / T) ** (lam - a)


def phi_test_integrals(phi: PowerTestFunction, order: FractionalOrder) -> tuple[float, float]:
    """The two test-function integrals, from the elementary antiderivative.

    First: integral over [0, T] of the right-RL derivative of phi.
    Second: integral over [0, T] of |right-RL derivative|^2 / phi.
    With C = Gamma(lam+1)/Gamma(lam+1-alpha) the derivative is
    C T^(-alpha) (1-t/T)^(lam-alpha), so the integrals are
    Gamma(lam+1)/Gamma(lam+2-alpha) T^(1-alpha) and
    C^2 T^(1-2alpha)/(lam+1-2alpha); the tests check both against adaptive
    quadrature of the derivative. The closed forms as printed carry the
    right T-scaling but a misprinted prefactor: where the derivative carries
    Gamma(lam+1)/Gamma(lam+1-alpha), they use
    lam*Gamma(lam-alpha)/Gamma(lam+1-2alpha), which puts them 18% and 39%
    above these values at (lam, alpha, T) = (2, 0.5, 1).
    """
    if order.is_classical:
        raise ValueError("test-function integrals require alpha in (0, 1)")
    lam, T, a = phi.exponent, phi.horizon, order.alpha
    i1 = _gamma_ratio(lam + 1.0, lam + 2.0 - a) * T ** (1.0 - a)
    i2 = _gamma_ratio(lam + 1.0, lam + 1.0 - a) ** 2 * T ** (1.0 - 2.0 * a) / (lam + 1.0 - 2.0 * a)
    return i1, i2
