"""Time-fractional scalar conservation-law solver.

Marches ^C D^alpha u + d/dx flux(u) = 0 with the L1 memory operator in time
(full history retained per spatial node) and a monotone Godunov upwind flux
in space. Two flux forms are provided: the quadratic transport form u^2/2 and
the occupancy-density form c*(rho^2 - rho_max*rho), which are exact affine
images of one another under u = 2 rho - 1, so the two solvers agree to
roundoff on transformed data.

The L1 history sum of every node comes from one frac_ops.LaggedSum over the
past slice differences: the full sum, reordered exactly into blocked FFTs, so
N steps on M nodes cost O(M N log^2 N) instead of O(M N^2). The far sums of
future steps wait in the history buffer's not-yet-written rows and the block
transforms run on column chunks, so the march needs about the memory of the
direct sum.

Each explicit step is monotone under the enforced CFL restriction
dt^alpha * max|speed| / (Gamma(2-alpha) dx) <= 0.5, checked per step against
the current slice; a violation is an error, not a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fode import Trajectory
from .frac_ops import FractionalOrder, LaggedSum, LagTables, TimeGrid, _power_increments
from .specfun import gamma

__all__ = [
    "SpatialGrid",
    "BoundaryRule",
    "MarketParams",
    "FieldHistory",
    "RescaledField",
    "CflError",
    "solve_u",
    "solve_rho",
    "rho_to_u",
    "u_to_rho",
    "separable_solution",
    "market_density",
    "rescale_field",
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
        if not self.rho_max > 0.0:
            raise ValueError(f"rho_max must be > 0, got {self.rho_max!r}")
        if not self.c_tilde > 0.0:
            raise ValueError(f"c_tilde must be > 0, got {self.c_tilde!r}")


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
    order: FractionalOrder = FractionalOrder(1.0)
    status: str = "completed"
    escape_index: int | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        s = np.asarray(self.slices, dtype=float)
        if s.shape != (self.time.count + 1, x.size):
            raise ValueError(f"slices shape {s.shape} does not match grids")
        if not np.all(np.isfinite(s)):
            raise ValueError("every retained slice must be finite")
        if self.status not in ("completed", "escaped"):
            raise ValueError(f"status must be 'completed' or 'escaped', got {self.status!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "slices", s)

    @property
    def times(self) -> np.ndarray:
        return self.time.times


def _godunov_flux(left: np.ndarray, right: np.ndarray, flux, s_min: float) -> np.ndarray:
    """Monotone Godunov flux for a convex flux with minimum at s_min."""
    return np.maximum(flux(np.maximum(left, s_min)), flux(np.minimum(right, s_min)))


def _march(
    u0: np.ndarray,
    order: FractionalOrder,
    spatial: SpatialGrid,
    time: TimeGrid,
    bc: BoundaryRule,
    flux,
    speed,
    s_min: float,
    escape_threshold: float,
) -> FieldHistory:
    periodic = bc.kind == "periodic"
    x = spatial.nodes(periodic)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != x.shape:
        raise ValueError(f"initial data has shape {u0.shape}, expected {x.shape}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial data must be finite")
    if not escape_threshold > 0.0:
        raise ValueError(f"escape_threshold must be > 0, got {escape_threshold!r}")

    alpha = order.alpha
    h = time.step
    dx = spatial.dx
    n_steps = time.count
    g2 = gamma(2.0 - alpha)
    dt_eff = g2 * h ** alpha
    cfl_scale = h ** alpha / (g2 * dx)

    # L1 weights b_1..b_m on the past slice differences u^(n-k) - u^(n-k-1)
    memory = LaggedSum(LagTables(lambda m: _power_increments(1.0 - alpha, m + 1)[1:]), n_steps, x.shape)
    # the retained slices: up to _RESERVED_BYTES of rows up front, doubled in
    # place when the march fills them (up to n_steps + 1 rows) and shrunk in
    # place to the slices kept, so nothing scales with horizon / step; no view
    # of the rows (`prev`) is used after a resize
    slices = np.empty((min(n_steps, max(1, _RESERVED_BYTES // (8 * x.size))) + 1, x.size))
    slices[0] = u0

    def finish(last: int, status: str, escape_index: int | None) -> FieldHistory:
        if last < 1:
            raise ValueError("first marching step produced a non-finite slice")
        slices.resize((last + 1, x.size), refcheck=False)
        return FieldHistory(spatial, TimeGrid(h, last), x, slices, order, status, escape_index)

    # a slice that overflows ends the march below, as an escape or as the
    # first-step error, so numpy's overflow warnings are not raised
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            prev = slices[n - 1]
            speeds = speed(prev)
            ratio = cfl_scale * float(speeds.max())
            if ratio > 0.5 + 1e-12:
                raise CflError(int(np.argmax(speeds)), n, ratio)

            hist = memory.value()
            if periodic:
                # periodic neighbours by concatenation: np.roll costs several times more
                f_right = _godunov_flux(prev, np.concatenate((prev[1:], prev[:1])), flux, s_min)
                div = (f_right - np.concatenate((f_right[-1:], f_right[:-1]))) / dx
                new = prev - hist - dt_eff * div
            else:
                f_iface = _godunov_flux(prev[:-1], prev[1:], flux, s_min)
                new = np.empty_like(prev)
                t_n = n * h
                new[0] = bc.callback(spatial.x_min, t_n)
                new[-1] = bc.callback(spatial.x_max, t_n)
                new[1:-1] = prev[1:-1] - hist[1:-1] - dt_eff * (f_iface[1:] - f_iface[:-1]) / dx

            peak = float(np.abs(new).max())  # NaN and inf carry through the max
            if not math.isfinite(peak):
                return finish(n - 1, "escaped", n)
            memory.append(new - prev)
            if n == len(slices):
                slices.resize((min(2 * n, n_steps + 1), x.size), refcheck=False)
            slices[n] = new
            if peak > escape_threshold:
                return finish(n, "escaped", n)
    return finish(n_steps, "completed", None)


def solve_u(
    u0: np.ndarray,
    order: FractionalOrder,
    spatial: SpatialGrid,
    time: TimeGrid,
    bc: BoundaryRule,
    escape_threshold: float = 1e6,
) -> FieldHistory:
    """Quadratic transport form: ^C D^alpha u + d/dx (u^2/2) = 0."""
    return _march(
        u0,
        order,
        spatial,
        time,
        bc,
        flux=lambda v: 0.5 * v * v,
        speed=np.abs,
        s_min=0.0,
        escape_threshold=escape_threshold,
    )


def solve_rho(
    rho0: np.ndarray,
    order: FractionalOrder,
    spatial: SpatialGrid,
    time: TimeGrid,
    bc: BoundaryRule,
    params: MarketParams = MarketParams(),
    escape_threshold: float = 1e6,
) -> FieldHistory:
    """Occupancy-density form: ^C D^alpha rho = d/dx (c*rho*(rho_max - rho))."""
    c, rm = params.c_tilde, params.rho_max
    return _march(
        rho0,
        order,
        spatial,
        time,
        bc,
        flux=lambda r: c * (r * r - rm * r),
        speed=lambda r: np.abs(c * (2.0 * r - rm)),
        s_min=rm / 2.0,
        escape_threshold=escape_threshold,
    )


def _affine_image(fieldhist: FieldHistory, scale: float, shift: float) -> FieldHistory:
    return FieldHistory(
        fieldhist.spatial,
        fieldhist.time,
        fieldhist.x,
        scale * fieldhist.slices + shift,
        fieldhist.order,
        fieldhist.status,
        fieldhist.escape_index,
    )


def rho_to_u(fieldhist: FieldHistory) -> FieldHistory:
    """Pointwise substitution u = 2 rho - 1."""
    return _affine_image(fieldhist, 2.0, -1.0)


def u_to_rho(fieldhist: FieldHistory) -> FieldHistory:
    """Pointwise substitution rho = (u + 1)/2, inverse of :func:`rho_to_u`."""
    return _affine_image(fieldhist, 0.5, 0.5)


def separable_solution(v: Trajectory, x: float, t: float) -> float:
    """Product-form field -x * v(t), with v linearly interpolated between nodes."""
    return -float(x) * v.value_at(t)


def market_density(v: Trajectory, x: float, t: float) -> float:
    """Density counterpart (1 - x*v(t))/2 of the product-form field."""
    return (1.0 - float(x) * v.value_at(t)) / 2.0


@dataclass(frozen=True)
class RescaledField:
    """Lazy description of the rescaled field u(lam^alpha x, lam t).

    Only the grid maps and the interpolation rule are stored; no data is
    resampled. If the base field is the product form with blow-up time T,
    the rescaled field blows up at T / lam.
    """

    base: FieldHistory
    lam: float

    def __post_init__(self) -> None:
        if not self.lam > 0.0:
            raise ValueError(f"lam must be > 0, got {self.lam!r}")

    @property
    def space_scale(self) -> float:
        """Base x-coordinate per rescaled x-coordinate."""
        return self.lam ** self.base.order.alpha

    @property
    def x_min(self) -> float:
        return self.base.x[0] / self.space_scale

    @property
    def x_max(self) -> float:
        return self.base.x[-1] / self.space_scale

    @property
    def t_max(self) -> float:
        return self.base.time.horizon / self.lam

    def evaluate(self, x: float, t: float) -> float:
        """Bilinear interpolation of the base field at (lam^alpha x, lam t)."""
        bx = float(x) * self.space_scale
        bt = float(t) * self.lam
        if not (self.base.x[0] <= bx <= self.base.x[-1]):
            raise ValueError(f"x = {x} maps outside the base spatial domain")
        if not (0.0 <= bt <= self.base.time.horizon * (1.0 + 1e-12)):
            raise ValueError(f"t = {t} maps outside the base time domain")
        h = self.base.time.step
        j = min(int(bt / h), self.base.time.count - 1)
        w = bt / h - j
        lo = np.interp(bx, self.base.x, self.base.slices[j])
        hi = np.interp(bx, self.base.x, self.base.slices[j + 1])
        return float((1.0 - w) * lo + w * hi)

    def initial_datum(self, x: float) -> float:
        return self.evaluate(x, 0.0)


def rescale_field(fieldhist: FieldHistory, lam: float) -> RescaledField:
    """Describe the rescaled field without resampling it."""
    return RescaledField(fieldhist, float(lam))
