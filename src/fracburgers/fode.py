"""Scalar fractional Cauchy solver and blow-up bracketing.

Solves ^C D^alpha v = f(v), v(0) = v0 through its Volterra form by the
implicit product-integration trapezoidal rule (Garrappa, Math. Comput.
Simul. 110, 2015), on the weights of frac_ops.rl_fractional_integral: the
march solves the discrete Volterra equation itself. f is quadratic, so each
step's corrector equation is solved in closed form, and a step with no real
root ends the march; alpha = 1 takes the same root as the implicit
trapezoid rule. The history g_j = f(v_j) - f(v_0) is summed in full by one
frac_ops.LaggedSum over one weight row, one base block at a time (its near
sums by the protocol of LaggedSum.blocks, in floats), and f(v_0) enters
through the closed-form weight sum of the rule on constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from .frac_ops import (
    FractionalOrder,
    LaggedSum,
    LagTables,
    SampledFunction,
    TimeGrid,
    rl_fractional_integral,
)
from .bounds import comparison_lower_bound
from .specfun import gamma

__all__ = [
    "Nonlinearity",
    "SolverConfig",
    "Trajectory",
    "RungRecord",
    "BlowupEstimate",
    "NoBlowupDetected",
    "UnderResolvedLadder",
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


class UnderResolvedLadder(RuntimeError):
    """Raised when the last two rungs of a blow-up ladder disagree beyond the gate band."""


@dataclass(frozen=True)
class Nonlinearity:
    """Right-hand side f(v) = min(a v^2 + b v, cap^2) of ^C D^alpha v = f(v).

    :meth:`square` is a = 1; the Mittag-Leffler oracle's decay f = -v is
    a = 0, b = -1. b <= 0, and a cap (cap = inf is none) needs a >= 0.
    """

    a: float = 1.0
    b: float = -0.0  # a v + -0.0 is a v on every float, so square() has the bits of v * v at v = -0.0 too
    cap: float = math.inf

    def __post_init__(self) -> None:
        capped_ok = self.a >= 0.0 or self.cap == math.inf
        if not (math.isfinite(self.a) and self.b <= 0.0 and self.cap > 0.0 and capped_ok):
            raise ValueError(f"need finite a, b <= 0 and cap > 0, with a >= 0 under a cap; got {self!r}")

    def __call__(self, v: float | np.ndarray) -> float | np.ndarray:
        r = (self.a * v + self.b) * v
        cap2 = self.cap * self.cap
        if isinstance(r, np.ndarray):
            return np.minimum(r, cap2)
        return cap2 if r > cap2 else r

    @classmethod
    def square(cls) -> "Nonlinearity":
        return cls()

    @classmethod
    def capped_square(cls, cap: float) -> "Nonlinearity":
        """min(v^2, cap^2): quadratic growth truncated at level cap."""
        return cls(cap=cap)

    def corrector(self, c: float) -> Callable[[float], float | None]:
        """The root of v = A + c f(v) as a function of A, or None where no real root exists.

        With x = A/(1 - cb) and g = ca/(1 - cb) it is v = x + g v^2, whose
        root 2x / (1 + sqrt(1 - 4gx)) tends to A as c -> 0. A cap holds it to
        v <= A + c cap^2, where f(v) <= cap^2, and puts v = A + c cap^2 beyond.
        """
        scale = 1.0 / (1.0 - c * self.b)
        slope, ceiling = 4.0 * c * self.a * scale, c * (self.cap * self.cap)
        sqrt, inf = math.sqrt, math.inf

        def root(A: float) -> float | None:
            x = A * scale
            d = 1.0 - slope * x
            v = (x + x) / (1.0 + sqrt(d)) if d >= 0.0 else inf
            if v > A + ceiling:
                v = A + ceiling
            return v if abs(v) < inf else None

        return root


@dataclass(frozen=True)
class SolverConfig:
    """Grid and stopping rule of one scalar march.

    The march takes `step`-sized steps up to `horizon` and stops early at the
    first node with |v| > `escape_threshold`, or at the first step whose
    corrector has no real root. `grid` is
    ``TimeGrid.spanning(step, horizon)``, which refuses a step longer than
    the horizon. The default threshold 1e10 is the one the blow-up ladder
    marches at, for :func:`estimate_blowup` and the ``blowup`` command
    alike, and the one the ``pde`` command's product-form inflow marches
    at; ``solve`` passes its ``--threshold``, 1e6 by default.
    """

    step: float
    horizon: float
    escape_threshold: float = 1e10
    grid: TimeGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", TimeGrid.spanning(self.step, self.horizon))
        if not np.isfinite(self.escape_threshold) or self.escape_threshold <= 0.0:
            raise ValueError(f"escape_threshold must be > 0, got {self.escape_threshold!r}")


def check_termination(escape_index: int | None, count: int) -> None:
    """Refuse an escape index that no march of `count` kept steps gives.

    An escaped march sets `escape_index` to `count` if it kept the offending
    value, or to `count` + 1 if that step had none; a completed one sets none.
    """
    if escape_index not in (None, count, count + 1):
        raise ValueError(f"escape_index {escape_index!r} does not fit a march of {count} kept steps")


@dataclass(frozen=True)
class Trajectory:
    """A solved sampled function plus the index at which its march escaped, if it did.

    An escaped march's samples run up to and including the first node whose
    value exceeds the escape threshold, or up to the node before the first
    step with no finite value (no real corrector root, or an overflow), in
    which case escape_index points one past the retained samples.
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
        raise ValueError("the first marching step has no finite value (no real corrector root, or an overflow)")
    grid = TimeGrid(step, len(values) - 1)
    return Trajectory(SampledFunction(grid, np.asarray(values)), escape_index)


def _solve_classical(f: Nonlinearity, v0: float, config: SolverConfig) -> Trajectory:
    """The implicit trapezoid rule for alpha = 1: each step the root at c = h/2, A = v_n + (h/2) f(v_n)."""
    h = config.step
    threshold = config.escape_threshold
    c = 0.5 * h
    root = f.corrector(c)
    values, vn, fv = [v0], v0, f(v0)
    for n in range(config.grid.count):
        vn = root(vn + c * fv)
        if vn is None or not abs(vn) <= threshold:  # no root, or past the threshold: escaped
            if vn is not None:
                values.append(vn)
            return _finish(values, h, n + 1)
        values.append(vn)
        fv = f(vn)
    return _finish(values, h, None)


def _solve_fractional(
    f: Nonlinearity, v0: float, order: FractionalOrder, config: SolverConfig, tables: LagTables
) -> Trajectory:
    alpha = order.alpha
    h = config.step
    n_steps = config.grid.count
    threshold = config.escape_threshold
    c = h ** alpha / gamma(alpha + 2.0)
    root = f.corrector(c)
    a, b, cap2 = f.a, f.b, f.cap * f.cap  # f, evaluated inline as Nonlinearity.__call__ does

    # The history holds f(v_j) - f(v_0); f(v_0) enters target n + 1 through the
    # weight sum on constants, (alpha+1) (n+1)^alpha less the weight 1 on
    # f(v_{n+1}). Step n reads target n + 1's far sum plus its near sum.
    near = tables.near
    w1, w2, w3 = tables.inner
    sums = LaggedSum(tables, n_steps + 1)
    f0 = float(f(v0))
    corr_f0 = (alpha + 1.0) * f0
    values = [v0]
    keep = values.append
    # g_0, the group's first two entries, and the near sums of targets 1..3 less their lags 1..3
    g = g0 = g1 = near1 = near2 = near3 = 0.0
    for b0, far, history in sums.blocks():
        if not b0:
            history[0] = 0.0  # g_0
        powers = np.power(np.arange(b0, b0 + len(far), dtype=float), alpha).tolist()  # t^alpha per target t
        for n in range(max(b0 - 1, 0), b0 + len(far) - 1):
            r = n + 1 - b0
            hist = far[r]
            i = r & 3  # the target's place in its group of four
            if not i:
                near0, near1, near2, near3 = near[r >> 2].dot(history[b0 : n + 1]).tolist()
                hist += near0
            elif i == 1:
                g0 = g
                hist += near1 + w1 * g
            elif i == 2:
                g1 = g
                hist += near2 + (w2 * g0 + w1 * g)
            else:
                hist += near3 + (w3 * g0 + w2 * g1 + w1 * g)
            vn = root(v0 + c * (hist + (corr_f0 * powers[r] - f0)))
            if vn is None or not abs(vn) <= threshold:  # no root, or past the threshold: escaped
                if vn is not None:
                    keep(vn)
                return _finish(values, h, n + 1)
            keep(vn)
            g = (a * vn + b) * vn  # f(vn)
            if g > cap2:
                g = cap2
            g -= f0
            history[n + 1] = g
    return _finish(values, h, None)


def solve(
    f: Nonlinearity, v0: float, order: FractionalOrder, config: SolverConfig, *, _tables: LagTables | None = None
) -> Trajectory:
    """March the Volterra form of ^C D^alpha v = f(v), v(0) = v0.

    Terminates at the horizon, at the first node past the escape threshold,
    or at the first step with no real corrector root, whichever comes first.
    The fractional march reads `_tables` (:meth:`LagTables.product_trapezoid`
    of the same alpha), which :func:`estimate_blowup` shares between its
    rungs; left out, the march builds its own.
    """
    v0 = _validate(f, v0, config)
    if order.is_classical:
        return _solve_classical(f, v0, config)
    tables = LagTables.product_trapezoid(order.alpha) if _tables is None else _tables
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
    frac_ops.rl_fractional_integral and returns the worst node mismatch: the
    weights are the march's, the summation path (one full-length real FFT,
    no blocking) is independent. A march leaves a roundoff residual.
    """
    fv = SampledFunction(traj.samples.grid, f(traj.values))
    rhs = traj.values[0] + rl_fractional_integral(fv, order).values
    return float(np.max(np.abs(rhs - traj.values)))


SEED_STEPS = 100  # K: the seed cap gives the finest rung at least about K steps
GATE_BAND = (-4.0, 3.0)  # resolved (e_prev - e_fine) / h_fine; the offset model gives [-3.73, 2.66]


def _bracket(rungs: Sequence[RungRecord]) -> tuple[float, float]:
    """[e - h, e + 2h] around the finest rung's escape time e.

    e came at T + o h with o in [-1.60, 0.53] against marches 100x finer
    (+0.53 at alpha 0.002): measured, not proved. Any o in [-2, 1] keeps T
    inside. Raises
    :class:`UnderResolvedLadder` when (e_prev - e_fine) / h_fine leaves
    `GATE_BAND`, or when the finest rung escapes at its first step.
    """
    prev, fine = rungs[-2:]
    h = fine.step
    gap = prev.steps * (prev.step / h) - fine.steps  # exact for halved steps
    if not (GATE_BAND[0] <= gap <= GATE_BAND[1] and fine.steps > 1):
        raise UnderResolvedLadder(
            f"the ladder is under-resolved: its last two rungs escape {gap:g} finest steps apart "
            f"(band {list(GATE_BAND)}), the finest after {fine.steps} steps of {h!r}"
        )
    return fine.steps * h - h, fine.steps * h + 2.0 * h


def estimate_blowup(order: FractionalOrder, config_seed: SolverConfig, refinements: int = 1) -> BlowupEstimate:
    """Bracket the blow-up time of ^C D^alpha v = v^2, v(0) = 1.

    Marches a step ladder: a seed step halved `refinements` times, every
    rung at the seed's escape threshold and horizon. The seed is the
    config's step or, if smaller, 2^refinements T_cmp / `SEED_STEPS` with
    T_cmp the proved :func:`bounds.comparison_lower_bound`. Each rung gives
    one escape index, and :func:`_bracket` the bracket, which reads the last
    two rungs alone: the default ladder marches those two and nothing else.
    Halvings of normal doubles are exact, so seed s with `refinements`
    r + k gives the bracket of seed s / 2^k with r: the finest step is the
    same, and the longer ladder only adds coarser rungs to the trace.

    At a fractional alpha the rungs read one set of weight tables
    (:meth:`frac_ops.LagTables.product_trapezoid`), built for this call, each
    level once, with the bits of tables of their own; at alpha = 1 none is
    built. The estimate keeps one :class:`RungRecord` per rung.

    Every rung's grid is checked before the first march; a refused rung
    raises ValueError naming its index and step, the seed step and
    `refinements`. The first rung that completes its horizon without
    escaping raises :class:`NoBlowupDetected` with the trace before it.
    """
    if refinements < 1:
        raise ValueError(f"refinements must be >= 1, got {refinements}")

    f = Nonlinearity.square()
    threshold = config_seed.escape_threshold
    # ldexp halves a step exactly and underflows to a refused 0 where 2.0 ** i
    # would overflow, so a huge `refinements` stops after about 1100 rungs; the
    # cap is scaled up only where that stays below the seed
    seed = config_seed.step
    finest = comparison_lower_bound(order) / SEED_STEPS
    if math.ldexp(seed, -refinements) > finest:
        seed = math.ldexp(finest, refinements)
    rungs = []
    for i in range(refinements + 1):
        step = math.ldexp(seed, -i)
        try:
            rungs.append(replace(config_seed, step=step))
        except ValueError as exc:
            raise ValueError(
                f"ladder rung {i} (step {step!r}, the seed step {seed!r} "
                f"halved {i} times; refinements {refinements}) is refused: {exc}"
            ) from exc

    tables = None if order.is_classical else LagTables.product_trapezoid(order.alpha)
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
    return BlowupEstimate(*_bracket(records), threshold, tuple(records))
