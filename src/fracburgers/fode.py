"""Scalar fractional Cauchy solver and blow-up bracketing.

Solves ^C D^alpha v = f(v), v(0) = v0 through the equivalent Volterra
integral form with a product-integration predictor-corrector: predictor by
product-rectangle weights, corrector by product-trapezoid weights. Both come
from the frac_ops tables; the corrector reads the same tables as
frac_ops.rl_fractional_integral, so its fixed point is the discrete Volterra
equation itself. alpha = 1 is routed to an explicit second-order one-step
method.

Marching keeps the full history of f(v_0..v_n) in one frac_ops.LaggedSum
with two weight rows, predictor and corrector, which evaluates the full sums
in O(N log^2 N) by an exact blocked-FFT reordering: the memory term is the
object under study, so no windowing or kernel compression is applied.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .frac_ops import (
    FractionalOrder,
    LaggedSum,
    SampledFunction,
    TimeGrid,
    _power_increments,
    _pt_weights,
    rl_fractional_integral,
)
from .specfun import gamma

__all__ = [
    "Nonlinearity",
    "SolverConfig",
    "Trajectory",
    "BlowupEstimate",
    "NoBlowupDetected",
    "solve",
    "solve_capped",
    "estimate_blowup",
    "volterra_residual",
]


class NoBlowupDetected(RuntimeError):
    """Raised when no threshold escape occurs below the configured horizon."""

    def __init__(self, message: str, trace: list[tuple[float, float, float | None]]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class Nonlinearity:
    """Right-hand side f of ^C D^alpha v = f(v)."""

    fn: Callable[[float], float]
    label: str

    def __call__(self, r: float) -> float:
        return self.fn(r)

    @classmethod
    def square(cls) -> "Nonlinearity":
        return cls(lambda r: r * r, "square")

    @classmethod
    def capped_square(cls, cap: float) -> "Nonlinearity":
        """min(r^2, cap^2): quadratic growth truncated at level cap."""
        cap = float(cap)
        if not cap > 0.0:
            raise ValueError(f"cap must be > 0, got {cap!r}")
        cap2 = cap * cap
        return cls(lambda r: min(r * r, cap2), f"capped_square({cap:g})")

    @classmethod
    def zero(cls) -> "Nonlinearity":
        return cls(lambda r: 0.0, "zero")


@dataclass(frozen=True)
class SolverConfig:
    step: float
    horizon: float
    escape_threshold: float = 1e6
    corrector_sweeps: int = 1

    def __post_init__(self) -> None:
        if not np.isfinite(self.step) or self.step <= 0.0:
            raise ValueError(f"step must be > 0, got {self.step!r}")
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")
        if self.step >= self.horizon:
            raise ValueError(f"step {self.step} must be smaller than horizon {self.horizon}")
        if not np.isfinite(self.escape_threshold) or self.escape_threshold <= 0.0:
            raise ValueError(f"escape_threshold must be > 0, got {self.escape_threshold!r}")
        if int(self.corrector_sweeps) != self.corrector_sweeps or self.corrector_sweeps < 0:
            raise ValueError(f"corrector_sweeps must be a nonnegative integer, got {self.corrector_sweeps!r}")
        object.__setattr__(self, "corrector_sweeps", int(self.corrector_sweeps))

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.step)))


@dataclass(frozen=True)
class Trajectory:
    """A solved sampled function plus its termination status.

    If status is "escaped", samples run up to and including the first node
    whose value exceeds the escape threshold (or up to the last finite node
    if the offending value overflowed to non-finite).
    """

    samples: SampledFunction
    status: str
    escape_index: int | None = None

    def __post_init__(self) -> None:
        if self.status not in ("completed", "escaped"):
            raise ValueError(f"status must be 'completed' or 'escaped', got {self.status!r}")
        if (self.status == "escaped") != (self.escape_index is not None):
            raise ValueError("escape_index must be set exactly when status is 'escaped'")

    @property
    def times(self) -> np.ndarray:
        return self.samples.times

    @property
    def values(self) -> np.ndarray:
        return self.samples.values

    @property
    def escape_time(self) -> float | None:
        if self.escape_index is None:
            return None
        return self.escape_index * self.samples.grid.step

    def value_at(self, t: float) -> float:
        return self.samples.value_at(t)


@dataclass(frozen=True)
class BlowupEstimate:
    """Bracket [t_lo, t_hi] for the blow-up time with its refinement trace."""

    t_lo: float
    t_hi: float
    refinement_trace: list[tuple[float, float, float]] = field(repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.t_lo <= self.t_hi):
            raise ValueError(f"need 0 < t_lo <= t_hi, got [{self.t_lo}, {self.t_hi}]")

    @property
    def width(self) -> float:
        return self.t_hi - self.t_lo


def _validate(f: Nonlinearity, v0: float, config: SolverConfig) -> float:
    v0 = float(v0)
    if not np.isfinite(v0):
        raise ValueError(f"v0 must be finite, got {v0!r}")
    if config.escape_threshold <= abs(v0):
        raise ValueError(
            f"escape_threshold {config.escape_threshold} must exceed |v0| = {abs(v0)}"
        )
    return v0


def _finish(values: list[float], step: float, escape_index: int | None) -> Trajectory:
    if len(values) < 2:
        raise ValueError("first marching step produced a non-finite value")
    grid = TimeGrid(step, len(values) - 1)
    samples = SampledFunction(grid, np.asarray(values))
    if escape_index is None:
        return Trajectory(samples, "completed")
    return Trajectory(samples, "escaped", escape_index)


def _solve_classical(f: Nonlinearity, v0: float, config: SolverConfig) -> Trajectory:
    """Explicit trapezoid (Heun) marching for the alpha = 1 limit."""
    h = config.step
    threshold = config.escape_threshold
    rhs = f.fn
    values = [v0]
    v = v0
    for n in range(config.n_steps):
        fv = rhs(v)
        vp = v + h * fv
        vn = v + 0.5 * h * (fv + rhs(vp))
        if not math.isfinite(vn):
            return _finish(values, h, n + 1)
        values.append(vn)
        if abs(vn) > threshold:
            return _finish(values, h, n + 1)
        v = vn
    return _finish(values, h, None)


class _MarchTables:
    """Weight tables of one fractional march, grown fourfold as the march needs more lags.

    `rows` holds the product-rectangle (predictor) and product-trapezoid
    interior (corrector) weights of lags 1..size. The corrector row also
    applies its lag-(n+1) weight to f(v_0), so `edge[n]` is the left-boundary
    weight of target n + 1 minus that interior weight. The tables follow the
    march, not the horizon: an early escape builds short ones.
    """

    __slots__ = ("alpha", "n_steps", "rows", "edge")

    def __init__(self, alpha: float, n_steps: int):
        self.alpha = alpha
        self.n_steps = n_steps
        self.rows = np.empty((2, 0))
        self.edge = array("d")

    def grow(self, count: int) -> None:
        if count > self.rows.shape[1]:
            # fourfold from 1024 lags, but no further than the fewer than
            # 2 n_steps lags that the FFT blocks of the march read
            grown = min(max(4 * self.rows.shape[1], 1024), 2 * self.n_steps)
            size = max(count, grown)
            self.rows = rows = np.empty((2, size))
            rows[0] = _power_increments(self.alpha, size)
            rows[1], left = _pt_weights(self.alpha, size)
            edge = left - rows[1]
            # indexing yields Python floats, as from a list, at 8 bytes an entry
            self.edge = array("d", edge[: self.n_steps].tobytes())

    def weights(self, count: int) -> np.ndarray:
        """Both weight rows for lags 1..count, as frac_ops.LaggedSum asks for them."""
        self.grow(count)
        return self.rows[:, :count]


def _solve_fractional(f: Nonlinearity, v0: float, order: FractionalOrder, config: SolverConfig) -> Trajectory:
    alpha = order.alpha
    h = config.step
    n_steps = config.n_steps
    threshold = config.escape_threshold
    sweeps = config.corrector_sweeps
    c_pred = h ** alpha / gamma(alpha + 1.0)
    c_corr = h ** alpha / gamma(alpha + 2.0)

    # One history f(v_0..v_n) with the predictor and corrector weight rows;
    # Python floats and the bound f.fn keep the per-step scalar work cheap.
    rhs = f.fn
    tables = _MarchTables(alpha, n_steps)
    sums = LaggedSum(tables.weights, n_steps + 1)
    edge = tables.edge
    f0 = float(rhs(v0))
    sums.append(f0)
    values = [v0]
    for n in range(n_steps):
        if n == len(edge):
            tables.grow(n + 1)
            edge = tables.edge
        pred, corr = sums.value().tolist()
        vp = v0 + c_pred * pred
        hist = edge[n] * f0 + corr
        vn = vp
        for _ in range(sweeps):
            vn = v0 + c_corr * (hist + rhs(vn))
        if not math.isfinite(vn):
            return _finish(values, h, n + 1)
        values.append(vn)
        if abs(vn) > threshold:
            return _finish(values, h, n + 1)
        sums.append(rhs(vn))
    return _finish(values, h, None)


def solve(f: Nonlinearity, v0: float, order: FractionalOrder, config: SolverConfig) -> Trajectory:
    """March the Volterra form of ^C D^alpha v = f(v), v(0) = v0.

    Terminates at the horizon or at the first node whose value exceeds the
    escape threshold, whichever comes first.
    """
    v0 = _validate(f, v0, config)
    if order.is_classical:
        return _solve_classical(f, v0, config)
    return _solve_fractional(f, v0, order, config)


def solve_capped(cap: float, v0: float, order: FractionalOrder, config: SolverConfig) -> Trajectory:
    """Solve with the capped quadratic nonlinearity min(v^2, cap^2), cap >= 4.

    The cap makes the trajectory globally finite; it agrees with the uncapped
    solve wherever the values stay at or below the cap.
    """
    if not float(cap) >= 4.0:
        raise ValueError(f"cap must be >= 4, got {cap!r}")
    return solve(Nonlinearity.capped_square(cap), v0, order, config)


def volterra_residual(traj: Trajectory, f: Nonlinearity, order: FractionalOrder) -> float:
    """Max abs defect of the trajectory in the discrete Volterra equation.

    Substitutes the computed values into v0 + I^alpha[f(v)] evaluated by
    frac_ops.rl_fractional_integral and returns the worst node mismatch. The
    march and the residual share the product-trapezoid weight formulas; only
    the summation path is independent (one full-length real FFT here, which
    shares no blocking with the march's lagged sums).
    """
    fn = f.fn
    fv = SampledFunction(traj.samples.grid, np.array([fn(r) for r in traj.values.tolist()]))
    rhs = traj.values[0] + rl_fractional_integral(fv, order).values
    return float(np.max(np.abs(rhs - traj.values)))


def estimate_blowup(
    order: FractionalOrder,
    config_seed: SolverConfig,
    refinements: int = 3,
    threshold_levels: int = 3,
    threshold_growth: float = 100.0,
) -> BlowupEstimate:
    """Bracket the blow-up time of ^C D^alpha v = v^2, v(0) = 1.

    Reads a (step, threshold) ladder: the seed step halved `refinements`
    times and the seed threshold multiplied by `threshold_growth`
    `threshold_levels - 1` times. The threshold only decides where a march
    stops, so each step runs one march, at the largest threshold, and the
    escape index of every smaller threshold x is read from that trajectory:
    the first node with |v| > x, or the node where the march overflowed if
    no finite value exceeds x. The trace is the one a separate march per
    (step, threshold) pair would give. The upper end of the bracket is the
    escape time at the finest step and largest threshold plus one step; the
    lower end subtracts a Richardson-style correction taken from the last
    step-halving difference. No growth-rate model is assumed.

    Raises :class:`NoBlowupDetected`, carrying the trace read so far, at the
    first (step, threshold) pair whose march would complete its horizon
    without escaping; a partial ladder never yields a fabricated estimate.
    """
    if refinements < 1:
        raise ValueError(f"refinements must be >= 1, got {refinements}")
    if threshold_levels < 2:
        raise ValueError(f"threshold_levels must be >= 2, got {threshold_levels}")
    if threshold_growth <= 1.0:
        raise ValueError(f"threshold_growth must be > 1, got {threshold_growth}")

    f = Nonlinearity.square()
    horizon, sweeps = config_seed.horizon, config_seed.corrector_sweeps
    steps = [config_seed.step / 2.0 ** i for i in range(refinements + 1)]
    seed = config_seed.escape_threshold
    try:
        thresholds = [seed * threshold_growth ** i for i in range(threshold_levels)]
    except OverflowError:  # the power itself left the float range
        thresholds = [math.inf]
    if not math.isfinite(thresholds[-1]):
        raise ValueError(
            f"the top ladder threshold overflows: escape_threshold {seed:g} * threshold_growth "
            f"{threshold_growth:g} ** (threshold_levels {threshold_levels} - 1) is not finite"
        )
    for x in thresholds:
        _validate(f, 1.0, SolverConfig(steps[0], horizon, x, sweeps))

    trace: list[tuple[float, float, float]] = []
    for h in steps:
        traj = solve(f, 1.0, order, SolverConfig(h, horizon, thresholds[-1], sweeps))
        magnitude = np.abs(traj.values)
        for x in thresholds:
            above = np.flatnonzero(magnitude > x)
            if above.size:
                idx = int(above[0])
            elif traj.status == "escaped":
                idx = traj.escape_index  # overflowed before any finite value exceeded x
            else:
                raise NoBlowupDetected(
                    f"no blow-up detected below horizon {horizon} "
                    f"(step {h:g}, threshold {x:g})",
                    trace,
                )
            trace.append((h, x, idx * traj.samples.grid.step))

    # the finest and the next-coarser step, both at the largest threshold
    e_fine = trace[-1][2]
    e_prev = trace[-1 - threshold_levels][2]
    h_fine = steps[-1]
    t_hi = e_fine + h_fine
    correction = abs(e_prev - e_fine) + h_fine
    t_lo = max(e_fine - correction, 0.5 * h_fine)
    t_lo = min(t_lo, t_hi)
    return BlowupEstimate(t_lo, t_hi, trace)
