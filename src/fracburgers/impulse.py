"""Closed-form solutions of the impulsively forced linear fractional problem.

For a train of Dirac impulses at 0 < p_1 < ... < p_N, the classical (alpha=1)
solution is the step count of past impulses; for alpha in (0, 1) it is the
superposition of kernel tails (t - p_k)^(alpha-1) / Gamma(alpha), each of
which diverges just after its impulse and decays back toward zero. Impulses
are never discretized: only these closed forms are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frac_ops import FractionalOrder, TimeGrid
from .specfun import gamma

__all__ = [
    "ImpulseTrain",
    "ImpulseTable",
    "step_solution",
    "fractional_impulse_solution",
    "impulse_table",
]


@dataclass(frozen=True)
class ImpulseTrain:
    """Strictly increasing, strictly positive impulse times."""

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("impulse train needs at least one time")
        if not np.all(np.isfinite(t)) or t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError(f"impulse times must be strictly increasing and positive, got {t}")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)


def step_solution(train: ImpulseTrain, t: float) -> int:
    """Number of impulse times strictly below t (the classical solution)."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return int(np.count_nonzero(train.times < t))


def fractional_impulse_solution(train: ImpulseTrain, order: FractionalOrder, t: float) -> float:
    """Sum of kernel tails (1/Gamma(alpha)) sum_{p_k < t} (t - p_k)^(alpha-1).

    Each term diverges at its impulse time, so t equal to any p_k is an error
    rather than a convention.
    """
    if order.is_classical:
        raise ValueError("alpha = 1 has the step solution; use step_solution")
    t = float(t)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if np.any(train.times == t):
        raise ValueError(f"solution diverges at the impulse time t = {t}")
    past = train.times[train.times < t]
    if past.size == 0:
        return 0.0
    return float(np.sum((t - past) ** (order.alpha - 1.0))) / gamma(order.alpha)


@dataclass(frozen=True)
class ImpulseTable:
    """One value column per requested order, sampled on a common time grid."""

    times: np.ndarray = field(repr=False)
    alphas: tuple[float, ...]
    values: np.ndarray = field(repr=False)  # shape (len(times), len(alphas))

    @property
    def column_labels(self) -> list[str]:
        return [f"alpha={a:g}" for a in self.alphas]


def impulse_table(train: ImpulseTrain, alphas: list[float], grid: TimeGrid) -> ImpulseTable:
    """Sample the impulse solutions on a grid, one column per order.

    Each column holds the kernel-tail sum, which at alpha = 1 (tails
    (t - p)^0 / Gamma(1) = 1) is exactly the step count. Grid nodes that land
    on an impulse time (where the fractional solutions diverge) are shifted
    forward by half a step.

    The grid increases and the impulses are sorted, so the grid splits into
    runs of nodes with the same past: in run m exactly the first m impulses
    lie strictly before t. Each run is one (nodes, m) block of kernel tails
    summed along its rows, the same terms in the same order as
    :func:`fractional_impulse_solution` sums them at each node, so the table
    equals the per-node closed forms bit for bit.
    """
    if not alphas:
        raise ValueError("need at least one order")
    orders = [FractionalOrder(a).alpha for a in alphas]

    times = grid.times.copy()
    tol = max(1e-12, 1e-12 * float(train.times[-1]))
    for p in train.times:
        hit = np.abs(times - p) <= tol
        times[hit] += grid.step / 2.0
    for p in train.times:
        if np.any(np.abs(times - p) <= tol):
            raise ValueError(f"grid node still collides with impulse time {p} after shifting")

    impulses = train.times
    # run m, times[edges[m]:edges[m + 1]], has the first m impulses in its past
    edges = np.concatenate(([0], np.searchsorted(times, impulses, side="right"), [times.size]))
    values = np.zeros((times.size, len(orders)))
    for j, a in enumerate(orders):
        scale = gamma(a)
        for m in range(1, impulses.size + 1):
            lo, hi = edges[m], edges[m + 1]
            tails = (times[lo:hi, None] - impulses[None, :m]) ** (a - 1.0)
            values[lo:hi, j] = tails.sum(axis=1) / scale
    return ImpulseTable(times, tuple(orders), values)
