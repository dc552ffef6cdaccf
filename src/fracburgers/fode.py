"""Scalar fractional Cauchy solver and blow-up bracketing.

Solves ^C D^alpha v = f(v), v(0) = v0 through the equivalent Volterra
integral form with a product-integration predictor-corrector (Diethelm, Ford
& Freed, Nonlinear Dyn. 29, 2002): predictor by product-rectangle weights,
corrector by product-trapezoid weights, both from the frac_ops tables, as in
frac_ops.rl_fractional_integral, so the corrector's fixed point is the
discrete Volterra equation itself. alpha = 1 is routed to an explicit
second-order one-step method.

The march sums the history g_j = f(v_j) - f(v_0) in one frac_ops.LaggedSum
with two weight rows, predictor and corrector (full sums, exact blocked
reordering, no windowing: the memory term is the object under study), and
adds f(v_0) through the closed-form weight sums of the rules on constants.
It walks the sum one base block at a time, in one tight loop per block with
no method call per step, and takes its near sums by the protocol of
LaggedSum.blocks, adding the in-group lags in floats. Each block's powers
(n+1)^alpha come from one numpy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Iterable

import numpy as np

from .frac_ops import (
    FractionalOrder,
    LaggedSum,
    LagTables,
    SampledFunction,
    TimeGrid,
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


class NoBlowupDetected(RuntimeError):
    """Raised when a march of the blow-up ladder completes its horizon without escaping."""

    def __init__(self, message: str, trace: list[tuple[float, float, float | None]]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class Nonlinearity:
    """Right-hand side f of ^C D^alpha v = f(v)."""

    fn: Callable[[float], float]

    def __call__(self, r: float) -> float:
        return self.fn(r)

    @classmethod
    def square(cls) -> "Nonlinearity":
        return cls(lambda r: r * r)

    @classmethod
    def capped_square(cls, cap: float) -> "Nonlinearity":
        """min(r^2, cap^2): quadratic growth truncated at level cap."""
        cap = float(cap)
        if not cap > 0.0:
            raise ValueError(f"cap must be > 0, got {cap!r}")
        cap2 = cap * cap
        # the bits of min(r * r, cap2) on every float, NaN included, without the builtin's call
        return cls(lambda r: cap2 if r * r > cap2 else r * r)


@dataclass(frozen=True)
class SolverConfig:
    """Grid and stopping rule of one scalar march.

    The march takes `step`-sized steps up to `horizon` and stops early at the
    first node with |v| > `escape_threshold`; the fractional corrector runs
    `corrector_sweeps` times per step. `grid` is
    ``TimeGrid.spanning(step, horizon)``, which refuses a step longer than
    the horizon. The default threshold 1e10 is the one the blow-up ladder
    marches at, for :func:`estimate_blowup` and the ``blowup`` command
    alike, and the one the ``pde`` command's product-form inflow marches
    at; ``solve`` passes its ``--threshold``, 1e6 by default.
    """

    step: float
    horizon: float
    escape_threshold: float = 1e10
    corrector_sweeps: int = 1
    grid: TimeGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", TimeGrid.spanning(self.step, self.horizon))
        if not np.isfinite(self.escape_threshold) or self.escape_threshold <= 0.0:
            raise ValueError(f"escape_threshold must be > 0, got {self.escape_threshold!r}")
        if int(self.corrector_sweeps) != self.corrector_sweeps or self.corrector_sweeps < 0:
            raise ValueError(f"corrector_sweeps must be a nonnegative integer, got {self.corrector_sweeps!r}")
        object.__setattr__(self, "corrector_sweeps", int(self.corrector_sweeps))


def check_termination(escape_index: int | None, count: int) -> None:
    """Refuse an escape index that no march of `count` kept steps gives.

    An escaped march sets `escape_index` to `count` if it kept the offending
    value, or to `count` + 1 if that value overflowed; a completed one sets none.
    """
    if escape_index not in (None, count, count + 1):
        raise ValueError(f"escape_index {escape_index!r} does not fit a march of {count} kept steps")


@dataclass(frozen=True)
class Trajectory:
    """A solved sampled function plus the index at which its march escaped, if it did.

    An escaped march's samples run up to and including the first node whose
    value exceeds the escape threshold (or up to the last finite node if the
    offending value overflowed to non-finite, in which case escape_index
    points one past the retained samples).
    """

    samples: SampledFunction
    escape_index: int | None = None

    def __post_init__(self) -> None:
        check_termination(self.escape_index, self.samples.grid.count)

    @property
    def status(self) -> str:
        """How the march ended: "escaped" if it stopped at an escape index, else "completed"."""
        return "completed" if self.escape_index is None else "escaped"

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
    """One rung of a blow-up ladder: a march at `step` that escaped.

    `steps` is the escape index of the march. `wall_s` is its wall time.
    """

    step: float
    steps: int
    wall_s: float


def _trace(threshold: float, rungs: Iterable[RungRecord]) -> list[tuple[float, float, float]]:
    """(step, threshold, escape time) of each rung, coarsest first."""
    return [(r.step, threshold, r.steps * r.step) for r in rungs]


@dataclass(frozen=True)
class BlowupEstimate:
    """Bracket [t_lo, t_hi] for the blow-up time with the ladder that gave it.

    `rungs` holds one :class:`RungRecord` per step of the ladder, coarsest
    first, each marched at `threshold`; `refinement_trace` is derived from them.
    """

    t_lo: float
    t_hi: float
    threshold: float
    rungs: tuple[RungRecord, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.t_lo <= self.t_hi):
            raise ValueError(f"need 0 < t_lo <= t_hi, got [{self.t_lo}, {self.t_hi}]")

    @property
    def width(self) -> float:
        return self.t_hi - self.t_lo

    @property
    def refinement_trace(self) -> list[tuple[float, float, float]]:
        """(step, threshold, escape time) per rung, coarsest first."""
        return _trace(self.threshold, self.rungs)


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
    return Trajectory(SampledFunction(grid, np.asarray(values)), escape_index)


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
    # the corrector's weight 1 on f(v_{n+1}). Step n reads target n + 1 as the
    # block's far sums, Python floats, plus its near sum (LaggedSum.blocks),
    # and writes g_{n+1} after it.
    rhs = f.fn
    near = tables.near
    (w1_pred, w2_pred, w3_pred), (w1_corr, w2_corr, w3_corr) = tables.inner
    sums = LaggedSum(tables, n_steps + 1)
    f0 = float(rhs(v0))
    pred_f0 = c_pred * f0
    corr_f0 = (alpha + 1.0) * f0
    values = [v0]
    keep = values.append
    # g_0, the group's first two entries, and the near sums of targets 1..3 less their lags 1..3
    g = g0 = g1 = pred1 = corr1 = pred2 = corr2 = pred3 = corr3 = 0.0
    for b0, far, history in sums.blocks():
        if not b0:
            history[0] = 0.0  # g_0
        powers = np.power(np.arange(b0, b0 + len(far), dtype=float), alpha).tolist()  # t^alpha per target t
        for n in range(max(b0 - 1, 0), b0 + len(far) - 1):
            r = n + 1 - b0
            pred, corr = far[r]
            i = r & 3  # the target's place in its group of four
            if not i:
                pred0, corr0, pred1, corr1, pred2, corr2, pred3, corr3 = near[r >> 2].dot(history[b0 : n + 1]).tolist()
                pred += pred0
                corr += corr0
            elif i == 1:
                g0 = g
                pred += pred1 + w1_pred * g
                corr += corr1 + w1_corr * g
            elif i == 2:
                g1 = g
                pred += pred2 + (w2_pred * g0 + w1_pred * g)
                corr += corr2 + (w2_corr * g0 + w1_corr * g)
            else:
                pred += pred3 + (w3_pred * g0 + w2_pred * g1 + w1_pred * g)
                corr += corr3 + (w3_corr * g0 + w2_corr * g1 + w1_corr * g)
            p = powers[r]
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
            g = rhs(vn) - f0
            history[n + 1] = g
    return _finish(values, h, None)


def solve(
    f: Nonlinearity, v0: float, order: FractionalOrder, config: SolverConfig, *, _tables: LagTables | None = None
) -> Trajectory:
    """March the Volterra form of ^C D^alpha v = f(v), v(0) = v0.

    Terminates at the horizon or at the first node whose value exceeds the
    escape threshold, whichever comes first. The fractional march reads its
    weights from `_tables` (:meth:`LagTables.predictor_corrector` of the same
    alpha), which :func:`estimate_blowup` shares between its rungs; left out,
    the march builds its own.
    """
    v0 = _validate(f, v0, config)
    if order.is_classical:
        return _solve_classical(f, v0, config)
    tables = LagTables.predictor_corrector(order.alpha) if _tables is None else _tables
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
    values = traj.values
    fv = SampledFunction(traj.samples.grid, np.fromiter(map(f.fn, values.tolist()), float, len(values)))
    rhs = traj.values[0] + rl_fractional_integral(fv, order).values
    return float(np.max(np.abs(rhs - traj.values)))


def estimate_blowup(order: FractionalOrder, config_seed: SolverConfig, refinements: int = 3) -> BlowupEstimate:
    """Bracket the blow-up time of ^C D^alpha v = v^2, v(0) = 1.

    Marches a step ladder: the seed step halved `refinements` times, every
    rung at the seed's escape threshold, horizon and corrector sweeps. Each
    rung gives one escape index. The upper end of the bracket is the escape
    time at the finest step plus one step; the lower end subtracts a
    Richardson-style correction taken from the last step-halving difference.
    No growth-rate model is assumed.

    Every rung marches at the same alpha, so at a fractional alpha all of
    them read one set of weight tables
    (:meth:`frac_ops.LagTables.predictor_corrector`), built for this call:
    each block level's table is computed once, by the first rung that
    reaches the level, and the sums are bit-identical to those of marches on
    tables of their own. At alpha = 1 the rungs march the one-step method,
    and no tables are built. The estimate keeps one
    :class:`RungRecord` per rung, from which its trace is derived.

    Every rung's grid is checked before the first march; a refused rung
    raises ValueError naming its index and step, the seed step and
    `refinements`. Raises :class:`NoBlowupDetected`, carrying the trace of
    the rungs before it, at the first rung whose march completes its horizon
    without escaping; a partial ladder never yields a fabricated estimate.
    """
    if refinements < 1:
        raise ValueError(f"refinements must be >= 1, got {refinements}")

    f = Nonlinearity.square()
    threshold = config_seed.escape_threshold
    # ldexp halves the seed step exactly and underflows to a refused 0 where
    # 2.0 ** i would overflow, so a huge `refinements` stops after about 1100 rungs
    rungs = []
    for i in range(refinements + 1):
        step = math.ldexp(config_seed.step, -i)
        try:
            rungs.append(replace(config_seed, step=step))
        except ValueError as exc:
            raise ValueError(
                f"ladder rung {i} (step {step!r}, the seed step {config_seed.step!r} "
                f"halved {i} times; refinements {refinements}) is refused: {exc}"
            ) from exc

    tables = None if order.is_classical else LagTables.predictor_corrector(order.alpha)
    records: list[RungRecord] = []
    for rung in rungs:
        start = perf_counter()
        traj = solve(f, 1.0, order, rung, _tables=tables)
        wall = perf_counter() - start
        if traj.escape_index is None:
            raise NoBlowupDetected(
                f"no blow-up detected below horizon {rung.horizon} "
                f"(step {rung.step:g}, threshold {threshold:g})",
                _trace(threshold, records),
            )
        records.append(RungRecord(rung.step, traj.escape_index, wall))

    fine, prev = records[-1], records[-2]
    h_fine = fine.step
    e_fine = fine.steps * h_fine
    e_prev = prev.steps * prev.step
    t_hi = e_fine + h_fine
    correction = abs(e_prev - e_fine) + h_fine
    t_lo = max(e_fine - correction, 0.5 * h_fine)
    t_lo = min(t_lo, t_hi)
    return BlowupEstimate(t_lo, t_hi, threshold, tuple(records))
