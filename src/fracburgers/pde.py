"""Time-fractional scalar conservation-law solver.

Marches the transport form ^C D^alpha u + d/dx (u^2/2) = 0 with the L1
memory operator in time (full history retained per spatial node) and a
monotone Godunov upwind flux in space. The occupancy-density form
^C D^alpha rho = d/dx (c*rho*(rho_max - rho)) is its exact affine image under
u = c*(2 rho - rho_max), so `solve_rho` maps its data to u, marches the one
transport scheme and maps the slices back.

Both boundary kinds take one step (the ghost-cell form of finite-volume
boundaries, LeVeque 2002, ch. 7): the Godunov flux on the faces of an
extended slice, then the L1 update of the nodes between them. A periodic
slice is extended by its two wrap images and every node is updated; a
Dirichlet slice is its own extension, its inner nodes are updated and its two
edge nodes are written from the boundary rule. The step runs on buffers
allocated once per march, with ``out=`` ufuncs, and writes the new slice
straight into its row of the retained slices.

The L1 history sum of every node comes from one frac_ops.LaggedSum over the
past slice differences, walked one base block of steps at a time by the
protocol of LaggedSum.blocks (a target's in-group lags as one product of at
most three rows): the full sum, reordered exactly into dyadic blocks, the
two smallest block levels added by direct products and the longer ones by
FFTs, so N steps on M nodes cost O(M N log^2 N) instead of O(M N^2). The
far sums of future steps wait in the history buffer's not-yet-written rows
and the block transforms run on column chunks, so the march needs about the
memory of the direct sum.

Each explicit step is monotone under the enforced CFL restriction
dt^alpha * max|u| / (Gamma(2-alpha) dx) <= 0.5, checked per step against
the current slice; a violation is an error, not a warning. The one
reduction max|u| of a slice serves that ratio and the escape test, which
reads the slice's max and min only once max|u| passes min(hi, -lo).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fode import Trajectory, check_termination
from .frac_ops import FractionalOrder, LaggedSum, LagTables, TimeGrid
from .specfun import gamma

__all__ = [
    "SpatialGrid",
    "BoundaryRule",
    "MarketParams",
    "FieldHistory",
    "CflError",
    "solve_u",
    "solve_rho",
    "separable_solution",
    "market_density",
]


_RESERVED_BYTES = 2**26  # slice rows allocated up front; a page costs memory once a row fills it


class CflError(RuntimeError):
    """CFL restriction violated; names the first offending (node, step)."""

    def __init__(self, node: int, step: int, ratio: float):
        super().__init__(
            f"CFL violation at node {node}, step {step}: "
            f"dt^alpha*max|speed|/(Gamma(2-alpha)*dx) = {ratio:.4g} > 0.5"
        )
        self.node = node
        self.step = step
        self.ratio = ratio


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform spatial nodes over [x_min, x_max] split into `cells` intervals."""

    x_min: float
    x_max: float
    cells: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max) and self.x_min < self.x_max):
            raise ValueError(f"need x_min < x_max, got [{self.x_min!r}, {self.x_max!r}]")
        if int(self.cells) != self.cells or self.cells < 8:
            raise ValueError(f"cells must be an integer >= 8, got {self.cells!r}")
        object.__setattr__(self, "cells", int(self.cells))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    def nodes(self, periodic: bool) -> np.ndarray:
        """Node coordinates: endpoints included unless periodic (then the right
        endpoint is the wrap image of the left one and is omitted)."""
        count = self.cells if periodic else self.cells + 1
        return self.x_min + np.arange(count) * self.dx


@dataclass(frozen=True)
class BoundaryRule:
    kind: str  # "periodic" | "dirichlet"
    callback: Callable[[float, float], float] | None = None  # (x_endpoint, t) -> value

    def __post_init__(self) -> None:
        if self.kind not in ("periodic", "dirichlet"):
            raise ValueError(f"kind must be 'periodic' or 'dirichlet', got {self.kind!r}")
        if (self.kind == "dirichlet") != (self.callback is not None):
            raise ValueError("dirichlet needs a callback; periodic takes none")

    @classmethod
    def periodic(cls) -> "BoundaryRule":
        return cls("periodic")

    @classmethod
    def dirichlet(cls, callback: Callable[[float, float], float]) -> "BoundaryRule":
        return cls("dirichlet", callback)


@dataclass(frozen=True)
class MarketParams:
    """Density-form parameters: velocity c_tilde*(rho_max - rho) per vacancy."""

    rho_max: float = 1.0
    c_tilde: float = 1.0

    def __post_init__(self) -> None:
        # finite and normal, so that the map to u and its inverse 0.5 / c_tilde stay finite
        for name in ("rho_max", "c_tilde"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= sys.float_info.min):
                raise ValueError(f"{name} must be finite and >= {sys.float_info.min!r}, got {value!r}")


@dataclass(frozen=True)
class FieldHistory:
    """Full space-time state array; every past slice feeds the memory term.

    On escape, slices run up to and including the first slice exceeding the
    threshold (or up to the last finite slice if the offender overflowed, in
    which case escape_index points one past the retained history).
    """

    spatial: SpatialGrid
    time: TimeGrid
    x: np.ndarray = field(repr=False)
    slices: np.ndarray = field(repr=False)  # shape (time.count + 1, len(x))
    order: FractionalOrder
    escape_index: int | None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        s = np.asarray(self.slices, dtype=float)
        if s.shape != (self.time.count + 1, x.size):
            raise ValueError(f"slices shape {s.shape} does not match grids")
        if not np.all(np.isfinite(s)):
            raise ValueError("every retained slice must be finite")
        check_termination(self.escape_index, self.time.count)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "slices", s)

    @property
    def status(self) -> str:
        """How the march ended: "escaped" if it stopped at an escape index, else "completed"."""
        return "completed" if self.escape_index is None else "escaped"

    @property
    def times(self) -> np.ndarray:
        return self.time.times


def _march(
    u0: np.ndarray,
    order: FractionalOrder,
    spatial: SpatialGrid,
    time: TimeGrid,
    bc: BoundaryRule,
    lo: float,
    hi: float,
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """March the transport form until a slice leaves [lo, hi]: (x, slices, escape_index)."""
    periodic = bc.kind == "periodic"
    x = spatial.nodes(periodic)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != x.shape:
        raise ValueError(f"initial data has shape {u0.shape}, expected {x.shape}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial data must be finite")

    alpha = order.alpha
    h = time.step
    dx = spatial.dx
    n_steps = time.count
    g2 = gamma(2.0 - alpha)
    flux_scale = 0.5 * g2 * h ** alpha / dx  # dt_eff / dx, with the 1/2 of the flux u^2/2
    cfl_scale = h ** alpha / (g2 * dx)
    inner = slice(None) if periodic else slice(1, -1)  # the nodes the flux updates

    # L1 weights b_1..b_m on the past slice differences u^(n-k) - u^(n-k-1):
    # step n reads the memory sum of target s = n - 1 and writes its difference there
    tables = LagTables.l1(alpha)
    near = tables.near
    inner_lags = [np.array(tables.inner[:i][::-1]) for i in range(4)]  # b_i..b_1 on a group's entries
    memory = LaggedSum(tables, n_steps, x.shape)
    # the retained slices: up to _RESERVED_BYTES of rows up front, doubled in
    # place when the march fills them (up to n_steps + 1 rows) and shrunk in
    # place to the slices kept, so nothing scales with horizon / step; no view
    # of the rows (`prev`) is used after a resize
    slices = np.empty((min(n_steps, max(1, _RESERVED_BYTES // (8 * x.size))) + 1, x.size))
    slices[0] = u0
    # max|u| of the current slice: the CFL ratio reads it, and the escape test
    # needs the slice's max and min only once it passes min(hi, -lo)
    peak = max(float(u0.max()), -float(u0.min()))
    safe = min(hi, -lo)

    def finish(last: int, escape_index: int | None):
        if last < 1:
            raise ValueError("first marching step produced a non-finite slice")
        slices.resize((last + 1, x.size), refcheck=False)
        return x, slices, escape_index

    # the step's buffers and their views, made once: the ghost-extended slice
    # of a periodic march (a Dirichlet slice is its own extension) with its
    # interior and its left and right cells, the squared upwind speeds on its
    # faces and their differences, the group product of four targets and a
    # target's lags on its group (then |new|); the new slice is written
    # straight into its row
    ext = np.empty(x.size + 2)
    interior, left, right = ext[1:-1], ext[:-1], ext[1:]
    faces = np.empty(x.size + 1 if periodic else x.size - 1)
    upper, lower = faces[1:], faces[:-1]
    div = np.empty(faces.size - 1)
    group = np.empty((4, x.size))
    parts = list(group)
    lag = np.empty(x.size)

    # a slice that overflows ends the march below, as an escape or as the
    # first-step error, so numpy's overflow warnings are not raised
    with np.errstate(over="ignore", invalid="ignore"):
        for b0, far, history in memory.blocks():
            for s in range(b0, b0 + len(far)):
                n = s + 1
                ratio = cfl_scale * peak
                if ratio > 0.5 + 1e-12:
                    raise CflError(int(np.argmax(np.abs(slices[s]))), n, ratio)
                if n == len(slices):
                    slices.resize((min(2 * n, n_steps + 1), x.size), refcheck=False)
                prev, new = slices[s], slices[n]  # fetched after any resize

                r = s - b0
                i = r & 3  # the target's place in its group of four
                hist = far[r]
                if i:  # its lags 1..i on the differences of its group written before it
                    part = parts[i]
                    np.dot(inner_lags[i], history[s - i : s], out=lag)
                    part += lag
                    hist += part
                else:
                    np.dot(near[r >> 2], history[b0:s], out=group)  # targets s..s + 3
                    hist += parts[0]
                if periodic:
                    np.copyto(interior, prev)
                    ext[0] = prev[-1]
                    ext[-1] = prev[0]
                else:
                    left, right = prev[:-1], prev[1:]
                # the Godunov flux of u^2/2 on the face (l, r) is max(l, -r, 0)^2 / 2
                np.negative(right, out=faces)
                np.maximum(faces, left, out=faces)
                np.maximum(faces, 0.0, out=faces)
                np.multiply(faces, faces, out=faces)
                np.subtract(upper, lower, out=div)
                div *= flux_scale
                np.subtract(prev, hist, out=new)
                body = new[inner]
                body -= div
                if not periodic:
                    new[0] = bc.callback(spatial.x_min, n * h)
                    new[-1] = bc.callback(spatial.x_max, n * h)

                # NaN and inf carry through the reduction
                peak = float(np.maximum.reduce(np.abs(new, out=lag)))
                if not math.isfinite(peak):
                    return finish(n - 1, n)
                np.subtract(new, prev, out=history[s])
                if peak > safe and (np.maximum.reduce(new) > hi or np.minimum.reduce(new) < lo):
                    return finish(n, n)
    return finish(n_steps, None)


def solve_u(
    u0: np.ndarray,
    order: FractionalOrder,
    spatial: SpatialGrid,
    time: TimeGrid,
    bc: BoundaryRule,
    escape_threshold: float = 1e6,
) -> FieldHistory:
    """Quadratic transport form: ^C D^alpha u + d/dx (u^2/2) = 0; escape at |u| > escape_threshold."""
    if not escape_threshold > 0.0:
        raise ValueError(f"escape_threshold must be > 0, got {escape_threshold!r}")
    x, slices, escape_index = _march(u0, order, spatial, time, bc, -escape_threshold, escape_threshold)
    return FieldHistory(spatial, TimeGrid(time.step, len(slices) - 1), x, slices, order, escape_index)


def _to_u(rho, params: MarketParams):
    """The transport value u = c_tilde * (2 rho - rho_max) of a density rho."""
    return params.c_tilde * (2.0 * rho - params.rho_max)


def _to_rho(u: np.ndarray, params: MarketParams, out: np.ndarray | None = None) -> np.ndarray:
    """The density rho = u / (2 c_tilde) + rho_max / 2 of a transport value u, inverse of :func:`_to_u`."""
    out = np.multiply(u, 0.5 / params.c_tilde, out=out)
    out += 0.5 * params.rho_max
    return out


def solve_rho(
    rho0: np.ndarray,
    order: FractionalOrder,
    spatial: SpatialGrid,
    time: TimeGrid,
    bc: BoundaryRule,
    params: MarketParams = MarketParams(),
    escape_threshold: float = 1e6,
) -> FieldHistory:
    """Occupancy-density form: ^C D^alpha rho = d/dx (c*rho*(rho_max - rho)).

    Marches the transport form on u = c*(2 rho - rho_max), with the initial
    data and any Dirichlet values mapped the same way, and maps the slices
    back in place. A slice escapes at |rho| > escape_threshold, which is u
    outside [-c*(2 X + rho_max), c*(2 X - rho_max)] for X = escape_threshold.
    """
    if not escape_threshold > 0.0:
        raise ValueError(f"escape_threshold must be > 0, got {escape_threshold!r}")
    if bc.kind == "dirichlet":
        rho_bc = bc.callback
        bc = BoundaryRule.dirichlet(lambda xx, tt: _to_u(rho_bc(xx, tt), params))
    u0 = _to_u(np.asarray(rho0, dtype=float), params)
    lo, hi = _to_u(-escape_threshold, params), _to_u(escape_threshold, params)
    x, slices, escape_index = _march(u0, order, spatial, time, bc, lo, hi)
    _to_rho(slices, params, out=slices)
    return FieldHistory(spatial, TimeGrid(time.step, len(slices) - 1), x, slices, order, escape_index)


def separable_solution(v: Trajectory, x: float, t: float) -> float:
    """Product-form field -x * v(t), with v linearly interpolated between nodes."""
    return -float(x) * v.value_at(t)


def market_density(v: Trajectory, x: float, t: float) -> float:
    """Density counterpart (1 - x*v(t))/2 of the product-form field."""
    return (1.0 - float(x) * v.value_at(t)) / 2.0
