"""Scalar fractional Cauchy solver and blow-up bracketing.

Solves ^C D^alpha v = f(v), v(0) = v0 through the equivalent Volterra
integral form with a product-integration predictor-corrector (Diethelm, Ford
& Freed, Nonlinear Dyn. 29, 2002): predictor by product-rectangle weights,
corrector by product-trapezoid weights, both from the frac_ops tables, as in
frac_ops.rl_fractional_integral, so the corrector's fixed point is the
discrete Volterra equation itself. alpha = 1 is routed to an explicit
second-order one-step method.

The march sums the history g_j = f(v_j) - f(v_0) in one frac_ops.LaggedSum
with two weight rows, predictor and corrector (full sums, exact blocked-FFT
reordering, no windowing: the memory term is the object under study), and
adds f(v_0) through the closed-form weight sums of the rules on constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable

import numpy as np

from .frac_ops import (
    FractionalOrder,
    LaggedSum,
    LagTables,
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
    "RungRecord",
    "BlowupEstimate",
    "NoBlowupDetected",
    "solve",
    "solve_capped",
    "estimate_blowup",
    "volterra_residual",
]


THRESHOLD_LEVELS = 3  # thresholds per step of the blow-up ladder
THRESHOLD_GROWTH = 100.0  # ratio of successive ladder thresholds


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
    """Grid and stopping rule of one scalar march.

    The march takes `step`-sized steps up to `horizon` and stops early at the
    first node with |v| > `escape_threshold`; the fractional corrector runs
    `corrector_sweeps` times per step. `grid` is
    ``TimeGrid.spanning(step, horizon)``: round(horizon / step) steps, at
    least one, with step, horizon and their ratio finite and > 0. The step
    may not exceed the horizon.
    """

    step: float
    horizon: float
    escape_threshold: float = 1e6
    corrector_sweeps: int = 1
    grid: TimeGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", TimeGrid.spanning(self.step, self.horizon))
        if self.step > self.horizon:
            raise ValueError(f"step {self.step} must not exceed horizon {self.horizon}")
        if not np.isfinite(self.escape_threshold) or self.escape_threshold <= 0.0:
            raise ValueError(f"escape_threshold must be > 0, got {self.escape_threshold!r}")
        if int(self.corrector_sweeps) != self.corrector_sweeps or self.corrector_sweeps < 0:
            raise ValueError(f"corrector_sweeps must be a nonnegative integer, got {self.corrector_sweeps!r}")
        object.__setattr__(self, "corrector_sweeps", int(self.corrector_sweeps))


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
class RungRecord:
    """One rung of a blow-up ladder: a march at `step`, read at every ladder threshold.

    `steps` is the number of steps the march took. `escape_indices` holds
    the escape index at each ladder threshold, lowest threshold first; a
    march that completes its horizon below a threshold holds only those of
    the thresholds it passed, and ends the ladder with
    :class:`NoBlowupDetected`. `wall_s` is the wall time of the march.
    `window` holds the (t, v) nodes with 10 <= v <= 100 of the finest rung,
    and is empty on the others.
    """

    step: float
    steps: int
    escape_indices: tuple[int, ...]
    wall_s: float
    window: tuple[tuple[float, float], ...] = field(default=(), repr=False)


def _trace(thresholds: tuple[float, ...], rungs: Iterable[RungRecord]) -> list[tuple[float, float, float]]:
    """(step, threshold, escape time) of every threshold each rung passed, rung by rung."""
    return [(r.step, x, i * r.step) for r in rungs for x, i in zip(thresholds, r.escape_indices)]


@dataclass(frozen=True)
class BlowupEstimate:
    """Bracket [t_lo, t_hi] for the blow-up time with the ladder that gave it.

    `rungs` holds one :class:`RungRecord` per step of the ladder, coarsest
    first, each read at `thresholds`; `refinement_trace` is derived from them.
    """

    t_lo: float
    t_hi: float
    thresholds: tuple[float, ...]
    rungs: tuple[RungRecord, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.t_lo <= self.t_hi):
            raise ValueError(f"need 0 < t_lo <= t_hi, got [{self.t_lo}, {self.t_hi}]")

    @property
    def width(self) -> float:
        return self.t_hi - self.t_lo

    @property
    def refinement_trace(self) -> list[tuple[float, float, float]]:
        """(step, threshold, escape time) per rung and threshold, coarsest rung and lowest threshold first."""
        return _trace(self.thresholds, self.rungs)


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
    for n in range(config.grid.count):
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


def _march_tables(alpha: float) -> LagTables:
    """The predictor and corrector weight rows of the fractional march at order alpha."""
    return LagTables(lambda m: np.stack((_power_increments(alpha, m), _pt_weights(alpha, m))))


def _solve_fractional(
    f: Nonlinearity, v0: float, order: FractionalOrder, config: SolverConfig, tables: LagTables
) -> Trajectory:
    alpha = order.alpha
    h = config.step
    n_steps = config.grid.count
    threshold = config.escape_threshold
    sweeps = range(config.corrector_sweeps)
    c_pred = h ** alpha / gamma(alpha + 1.0)
    c_corr = h ** alpha / gamma(alpha + 2.0)

    # The history holds f(v_j) - f(v_0); f(v_0) enters target n + 1 through
    # the weight sums on constants, (n+1)^alpha and (alpha+1) (n+1)^alpha less
    # the corrector's weight 1 on f(v_{n+1}). The memory sums arrive as Python
    # floats, and the bound methods below keep the per-step scalar work cheap.
    rhs = f.fn
    sums = LaggedSum(tables, n_steps + 1)
    f0 = float(rhs(v0))
    pred_f0 = c_pred * f0
    corr_f0 = (alpha + 1.0) * f0
    sums.append(0.0)
    values = [v0]
    memory, remember, keep = sums.value, sums.append, values.append
    for n in range(n_steps):
        pred, corr = memory()
        p = (n + 1.0) ** alpha
        vp = v0 + c_pred * pred + pred_f0 * p
        hist = corr + (corr_f0 * p - f0)
        vn = vp
        for _ in sweeps:
            vn = v0 + c_corr * (hist + rhs(vn))
        if not abs(vn) <= threshold:  # past the finite threshold, or NaN: escaped
            if math.isfinite(vn):  # a non-finite value is not kept
                keep(vn)
            return _finish(values, h, n + 1)
        keep(vn)
        remember(rhs(vn) - f0)
    return _finish(values, h, None)


def solve(
    f: Nonlinearity, v0: float, order: FractionalOrder, config: SolverConfig, *, _tables: LagTables | None = None
) -> Trajectory:
    """March the Volterra form of ^C D^alpha v = f(v), v(0) = v0.

    Terminates at the horizon or at the first node whose value exceeds the
    escape threshold, whichever comes first. The fractional march reads its
    weights from `_tables` (:func:`_march_tables` of the same alpha), which
    :func:`estimate_blowup` shares between its rungs; left out, the march
    builds its own.
    """
    v0 = _validate(f, v0, config)
    if order.is_classical:
        return _solve_classical(f, v0, config)
    tables = _march_tables(order.alpha) if _tables is None else _tables
    return _solve_fractional(f, v0, order, config, tables)


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
    march and the residual share the product-trapezoid interior table and
    both add f(v_0) through the closed-form weight sum (alpha+1) n^alpha;
    only the summation path is independent (one full-length real FFT here,
    which shares no blocking with the march's lagged sums).
    """
    fn = f.fn
    fv = SampledFunction(traj.samples.grid, np.array([fn(r) for r in traj.values.tolist()]))
    rhs = traj.values[0] + rl_fractional_integral(fv, order).values
    return float(np.max(np.abs(rhs - traj.values)))


def estimate_blowup(order: FractionalOrder, config_seed: SolverConfig, refinements: int = 3) -> BlowupEstimate:
    """Bracket the blow-up time of ^C D^alpha v = v^2, v(0) = 1.

    Reads a (step, threshold) ladder: the seed step halved `refinements`
    times, and the seed threshold times THRESHOLD_GROWTH ** i for
    i < THRESHOLD_LEVELS. The threshold only decides where a march stops, so
    each step runs one march, at the largest threshold, and the escape index
    of every smaller threshold x is read from that trajectory: the first node
    with |v| > x, or the node where the march overflowed if no finite value
    exceeds x. The trace is the one a separate march per
    (step, threshold) pair would give. The upper end of the bracket is the
    escape time at the finest step and largest threshold plus one step; the
    lower end subtracts a Richardson-style correction taken from the last
    step-halving difference. No growth-rate model is assumed.

    Every rung marches at the same alpha, so all of them read one set of
    weight tables (:class:`frac_ops.LagTables`), built for this call and
    grown to the largest rung's needs; the sums are bit-identical to those
    of marches on tables of their own. The estimate keeps one
    :class:`RungRecord` per rung, from which its trace is derived.

    Every rung's grid is checked before the first march; a refused rung
    raises ValueError naming its index and step, the seed step and
    `refinements`. Raises :class:`NoBlowupDetected`, carrying the trace read
    so far, at the first (step, threshold) pair whose march would complete
    its horizon without escaping; a partial ladder never yields a fabricated
    estimate.
    """
    if refinements < 1:
        raise ValueError(f"refinements must be >= 1, got {refinements}")

    f = Nonlinearity.square()
    horizon, sweeps = config_seed.horizon, config_seed.corrector_sweeps
    seed = config_seed.escape_threshold
    try:
        thresholds = tuple(seed * THRESHOLD_GROWTH ** i for i in range(THRESHOLD_LEVELS))
    except OverflowError:  # the power itself left the float range
        thresholds = (math.inf,)
    if not math.isfinite(thresholds[-1]):
        raise ValueError(
            f"the top ladder threshold overflows: escape_threshold {seed:g} * "
            f"{THRESHOLD_GROWTH:g} ** {THRESHOLD_LEVELS - 1} is not finite"
        )
    _validate(f, 1.0, config_seed)  # the thresholds rise from the seed's
    # ldexp halves the seed step exactly and underflows to a refused 0 where
    # 2.0 ** i would overflow, so a huge `refinements` stops after about 1100 rungs
    rungs = []
    for i in range(refinements + 1):
        step = math.ldexp(config_seed.step, -i)
        try:
            rungs.append(SolverConfig(step, horizon, thresholds[-1], sweeps))
        except ValueError as exc:
            raise ValueError(
                f"ladder rung {i} (step {step!r}, the seed step {config_seed.step!r} "
                f"halved {i} times; refinements {refinements}) is refused: {exc}"
            ) from exc

    tables = _march_tables(order.alpha)
    records: list[RungRecord] = []
    for rung in rungs:
        start = perf_counter()
        traj = solve(f, 1.0, order, rung, _tables=tables)
        wall = perf_counter() - start
        magnitude = np.abs(traj.values)
        indices = []
        for x in thresholds:
            above = np.flatnonzero(magnitude > x)
            if above.size:
                indices.append(int(above[0]))
            elif traj.status == "escaped":
                indices.append(traj.escape_index)  # overflowed before any finite value exceeded x
            else:
                break
        window = ()
        if rung is rungs[-1]:
            v = traj.values
            inside = (v >= 10.0) & (v <= 100.0)
            window = tuple(zip(traj.times[inside].tolist(), v[inside].tolist()))
        steps = traj.escape_index if traj.escape_index is not None else traj.samples.grid.count
        records.append(RungRecord(rung.step, steps, tuple(indices), wall, window))
        if len(indices) < len(thresholds):
            raise NoBlowupDetected(
                f"no blow-up detected below horizon {horizon} "
                f"(step {rung.step:g}, threshold {thresholds[len(indices)]:g})",
                _trace(thresholds, records),
            )

    # the finest and the next-coarser step, both at the largest threshold
    fine, prev = records[-1], records[-2]
    h_fine = fine.step
    e_fine = fine.escape_indices[-1] * h_fine
    e_prev = prev.escape_indices[-1] * prev.step
    t_hi = e_fine + h_fine
    correction = abs(e_prev - e_fine) + h_fine
    t_lo = max(e_fine - correction, 0.5 * h_fine)
    t_lo = min(t_lo, t_hi)
    return BlowupEstimate(t_lo, t_hi, thresholds, tuple(records))
