"""Discrete fractional operators on uniform time grids.

Implements the piecewise-linear (L1) discretization of the left Caputo
derivative, the product-trapezoidal Riemann-Liouville fractional integral,
and the right Riemann-Liouville derivative of the power test function
(1 - t/T)^lam together with its two integrals, in elementary closed form.

Both quadratures are exact on piecewise-linear data, which is what makes the
exactness contracts in the tests sharp.

Every weight formula of the package lives here: one power-increment table
(k+1)^p - k^p, evaluated as k^p expm1(p log1p(1/k)) so that it does not
cancel, gives the L1 weights (p = 1 - alpha) of the pde; the fode's
product-trapezoid interior table is a second difference of k^(a+1), which
cancels about k^2-fold in closed form, so it is summed as a binomial series
of positive terms. No left-boundary weight is tabulated: the product rules
are exact on constants, so callers sum g - g(t_0) and add g(t_0) times the
closed-form weight sum.

The marching solvers (fode, pde) take their memory terms from one
primitive, :class:`LaggedSum`, which evaluates the full O(N^2) sum in
O(N log^2 N) by an exact blocked reordering (Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985), with no compression and no windowing.
A march walks it one base block of targets at a time
(:meth:`LaggedSum.blocks`), with no call into it per step, on the weight
tables of a :class:`LagTables` that marches of one weight kind share.
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
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .specfun import gamma, log_gamma

__all__ = [
    "FractionalOrder",
    "TimeGrid",
    "SampledFunction",
    "PowerTestFunction",
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
        """The grid of round(horizon / step) steps of size `step`.

        This is the step-count rule of every march. Raises ValueError unless
        step, horizon and their ratio are all finite, step and horizon are
        > 0, and step <= horizon, so that the last node lies within half a
        step of the horizon. A finite ratio is not capped: there is no step
        budget.
        """
        for name, value in (("step", step), ("horizon", horizon)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        ratio = horizon / step
        if not math.isfinite(ratio):
            raise ValueError(f"horizon / step must be finite, got {horizon!r} / {step!r}")
        if step > horizon:
            raise ValueError(f"step {step} must not exceed horizon {horizon}")
        return cls(step, round(ratio))

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
        """Linear interpolation between nodes; t must lie in [0, horizon].

        Reads only the two nodes around t, the same value as ``np.interp``
        over the whole grid.
        """
        t = float(t)
        if t < 0.0 or t > self.grid.horizon * (1.0 + 1e-12):
            raise ValueError(f"t={t} outside the sampled domain [0, {self.grid.horizon}]")
        step, count = self.grid.step, self.grid.count
        i = int(t / step)  # the interval [t_i, t_i+1] that holds t, the last one from t_N on,
        if i >= count:
            i = count - 1
        if t < i * step:  # unless t / step rounded up onto node i
            i -= 1
        return float(np.interp(t, np.arange(i, i + 2.0) * step, self.values[i : i + 2]))


def _power_increments(p: float, count: int) -> np.ndarray:
    """(k+1)^p - k^p for k = 0..count-1.

    With p = 1 - alpha these are the L1 weights b_k. The difference of
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
# the most weights of a block level added by one direct product, not by FFT (a
# larger matrix costs more to build and to read at a scalar flush than its transform)
_DIRECT_ENTRIES = 1 << 16
_FFT_ENTRIES = 1 << 16  # complex entries per column chunk of a block transform


class LagTables:
    """The weight row of one weight kind, shared by every :class:`LaggedSum` built on it.

    ``weights(m)`` returns w_1..w_m, each entry depending on the lag k
    alone. The object memoizes what marches read and never write: one table
    per block level L (from ``weights(2L - 1)``, at the first request,
    :meth:`level`) and the near part, laid out for the group products of
    :meth:`LaggedSum.blocks`: `near[q]`, q = 0..B/4 - 1, is the C-contiguous
    (4, 4q) matrix whose row i holds target 4q + i less its lags 1..i
    (w_4q+i..w_i+1) against the 4q entries before target 4q; `inner` holds
    w_1, w_2, w_3, the lags a target lacks on its own group's entries.
    Marches of one kind (the rungs of a blow-up ladder) share one object and
    compute each table once. The kinds are :meth:`product_trapezoid` (fode)
    and :meth:`l1` (pde).
    """

    __slots__ = ("_weights", "near", "inner", "_levels")

    def __init__(self, weights: Callable[[int], np.ndarray]):
        self._weights = weights
        table = weights(_BLOCK - 1)
        self.inner = table[:3].tolist()
        # row i of the windows of w_{B-1}..w_1 is w_{B-4+i}..w_{i+1}; near[q] is its last 4q columns
        rows = np.lib.stride_tricks.sliding_window_view(table[::-1], _BLOCK - 4)[::-1]
        self.near = [np.ascontiguousarray(rows[:, _BLOCK - 4 - 4 * q :]) for q in range(_BLOCK // 4)]
        self._levels: list[np.ndarray] = []  # level l: its Toeplitz matrix or its spectrum

    @classmethod
    def product_trapezoid(cls, alpha: float) -> "LagTables":
        """The product-trapezoid interior weights d_1..d_m of the fractional Volterra march."""
        return cls(lambda m: _pt_weights(alpha, m))

    @classmethod
    def l1(cls, alpha: float) -> "LagTables":
        """The L1 weights b_1..b_m of the Caputo march, on past increments."""
        return cls(lambda m: _power_increments(1.0 - alpha, m + 1)[1:])

    def level(self, level: int) -> np.ndarray:
        """The lags w_1..w_{2L-1} of block level `level` (L = B 2^level), as its flush reads them.

        While L^2 <= ``_DIRECT_ENTRIES`` (L <= 2B) they form a Toeplitz
        matrix of shape (L, L): row i holds target i after the block,
        w_{L+i-j} against entry j of the block. Beyond it they form a
        spectrum of shape (L + 1,).
        """
        if level == len(self._levels):  # a march reaches its levels in increasing order
            size = _BLOCK << level
            lags = self._weights(2 * size - 1)
            if size * size <= _DIRECT_ENTRIES:
                # window p of w_{2L-1}..w_1 is w_{2L-1-p}..w_{L-p}: the row of target L - 1 - p
                windows = np.lib.stride_tricks.sliding_window_view(lags[::-1], size)
                table = np.ascontiguousarray(windows[::-1])
            else:
                # rfft pads w_1..w_{2L-1} with one zero: the segment w_0..w_{2L-1}
                # rotated by one lag, so the block outputs are read one index early
                table = np.fft.rfft(lags, 2 * size)
            self._levels.append(table)
        return self._levels[level]


class LaggedSum:
    """Lagged sums s_n = sum_{k=1}^{n} w_k g_{n-k} over a history the caller writes.

    The history g_0, g_1, ... holds up to `capacity` entries (scalars, or
    rows of the given shape), and every target n < capacity reads s_n before
    g_n is written; the last entry is kept but feeds no sum. An empty
    history sums to 0. Every march in the package takes its memory term from
    here, through one driver, :meth:`blocks`.

    The sum is the full one, reordered exactly in dyadic blocks (Hairer,
    Lubich & Schlichte 1985) so that n steps cost O(n log^2 n): the lags
    inside the current base block of B = 128 entries are summed by the march
    (:meth:`blocks`); when the history length s reaches a multiple of B,
    with L = B * 2^v and v the 2-adic valuation of s / B, the block g[s-L:s]
    adds its part to the targets s..s+L-1 through w_1..w_{2L-1}, one
    matrix or spectrum per level (:meth:`LagTables.level`): as one direct
    product while the Toeplitz matrix holds at most 2^16 weights (L <= 2B),
    computed whole so that no bit depends on the capacity, and beyond it by
    a real FFT of length 2L, at most 2^16 complex entries of history columns
    at a time, which bounds the temporaries. Every (target, source) pair is
    counted once; nothing is compressed or windowed. The history buffer
    starts at min(capacity, B) rows and doubles in place at a flush, and its
    not-yet-written slots hold the far sums of future targets (slot n holds
    far[n] until g_n overwrites it).
    """

    __slots__ = ("_tables", "_capacity", "_history")

    def __init__(self, tables: LagTables, capacity: int, shape: tuple[int, ...] = ()):
        self._tables = tables
        self._capacity = capacity
        self._history = np.zeros((min(capacity, _BLOCK), *shape))

    def blocks(self) -> Iterator[tuple[int, list | np.ndarray, np.ndarray]]:
        """Walk the targets one base block at a time: yields (b0, far, history).

        One tuple per base block b0 = 0, B, 2B, ... below `capacity`; its
        targets are n = b0 .. b0 + len(far) - 1, taken in order, in groups of
        four: the near-sum protocol of every march in the package. At
        r = n - b0 divisible by 4 the caller forms the group product
        P = tables.near[r // 4] . history[b0:n], whose row i is the near sum
        of target n + i less its lags 1..i; it reads s_n = far[r] plus row 0
        and writes g_n into history[n]. Target n + i, for i = 1, 2, 3, reads
        s_{n+i} = far[r + i] plus (row i plus w_i g_n + ... + w_1 g_{n+i-1},
        the lags from `tables.inner` on its group's entries), and writes
        g_{n+i}; rows past a block's end are not read. Every block reaching
        these targets is in `far` before the block starts; resuming the walk
        adds the block that ends there (:meth:`_flush`). A march that stops
        early abandons the walk.

        `history` is the buffer itself, which a flush resizes in place, so
        the caller keeps no view of it across blocks. `far` is a copy of the
        block's far sums: Python floats for a scalar history (each far sum
        plus the near sum is the IEEE addition an ndarray add makes), an
        ndarray of rows for a row history.
        """
        scalar = self._history.ndim == 1
        for b0 in range(0, self._capacity, _BLOCK):
            if b0:
                self._flush(b0)
            far = self._history[b0 : b0 + _BLOCK]
            far = far.tolist() if scalar else far.copy()  # no view outlives the yield
            yield b0, far, self._history

    def _flush(self, s: int) -> None:
        """Add the block of L entries ending at s to the far sums of targets s..s+L-1."""
        blocks = s // _BLOCK
        level = (blocks & -blocks).bit_length() - 1
        size = _BLOCK << level
        count = min(size, self._capacity - s)
        if len(self._history) < s + count:
            # one doubling reaches s + count, since a block is never longer
            # than the history before it; nothing holds a view of the buffer here
            rows = min(2 * len(self._history), self._capacity)
            self._history.resize((rows, *self._history.shape[1:]), refcheck=False)
        table = self._tables.level(level)
        block = self._history[s - size : s].reshape(size, -1)
        far = self._history[s : s + count].reshape(count, -1)
        if table.ndim == 2:  # a Toeplitz matrix, not a spectrum
            # the whole product for any count, so that no bit depends on the capacity
            far += np.dot(table, block)[:count]
            return
        chunk = max(1, _FFT_ENTRIES // (size + 1))
        for c in range(0, block.shape[1], chunk):
            g = np.fft.rfft(block[:, c : c + chunk], 2 * size, axis=0)
            tail = np.fft.irfft(table[:, None] * g, 2 * size, axis=0)
            far[:, c : c + chunk] += tail[size - 1 : size - 1 + count]


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
