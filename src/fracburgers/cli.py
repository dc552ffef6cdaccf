"""Command-line entry point.

Every subcommand emits machine-readable output: JSON reports on stdout for
scalar results (bounds, blowup), CSV files plus a JSON run manifest for data
products (solve, impulse, caputo, pde). CSV floats are written with
shortest-round-trip precision so identical parameters reproduce identical
bytes.

Exit codes: 0 success, 2 argument errors or violated preconditions,
3 numerical failure (CFL violation, bound-consistency failure, bracket outside
the theoretical sandwich, an under-resolved ladder: fode._bracket), 4 no
blow-up detected below the horizon.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time as _time
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as _bounds
from . import fode as _fode
from . import impulse as _impulse
from . import pde as _pde
from .bounds import ConsistencyError
from .frac_ops import (
    FractionalOrder,
    SampledFunction,
    TimeGrid,
    caputo_left,
    classical_derivative,
)

DEFAULT_DELTA = 0.5  # documented arbitrary default for the lower-bound report
DEFAULT_IMPULSE_ALPHAS = "0.1,0.25,0.5,0.75,0.875,0.9,0.99,1"
DEFAULT_IMPULSE_TIMES = "1,2,3,4"
_ROWS_PER_WRITE = 4096  # CSV rows formatted and written at a time


def _cells(column) -> list[str]:
    return list(map(repr, np.asarray(column, dtype=float).tolist()))


def _lines(*cells) -> str:
    """CSV lines of one or more rows, each ended by a newline."""
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write the header line, then one line per row of the float `columns`.

    `columns` holds one 1-D array per header name. A long-format product
    passes (times, x, field) with field of shape (len(times), len(x)) and gets
    one line per (t, x) pair, written one time slice at a time.

    Every cell is repr of a Python float, the shortest string that round-trips;
    each value, time and node is formatted once. No cell (nor header label)
    holds a comma, quote or newline, so nothing is quoted and the bytes are
    those of csv.writer with LF line ends.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if np.ndim(columns[-1]) == 2:
            times, x, field = columns
            x_cells = _cells(x)
            for t, row in zip(_cells(times), field):
                fh.write(_lines(repeat(t), x_cells, _cells(row)))
        else:
            for lo in range(0, len(columns[0]), _ROWS_PER_WRITE):
                fh.write(_lines(*(_cells(c[lo : lo + _ROWS_PER_WRITE]) for c in columns)))


def _write_manifest(path: Path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _manifest(args: argparse.Namespace, grids: dict, outputs: list[str], t0: float) -> dict:
    # every option of the subcommand except the output directory, in parser order
    parameters = {k: v for k, v in vars(args).items() if k not in ("subcommand", "func", "out")}
    return {
        "subcommand": args.subcommand,
        "parameters": parameters,
        "version": __version__,
        "grids": grids,
        "outputs": outputs,
        "duration_seconds": _time.perf_counter() - t0,
    }


def _write_product(args: argparse.Namespace, header: list[str], columns, grids: dict, t0: float, **status) -> int:
    """Write <subcommand>.csv and <subcommand>_manifest.json into --out."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{args.subcommand}.csv"
    _write_csv(csv_path, header, columns)
    manifest = _manifest(args, grids, [str(csv_path)], t0)
    manifest.update(status)
    _write_manifest(out / f"{args.subcommand}_manifest.json", manifest)
    return 0


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma-separated float list, got {text!r}") from exc


def _cmd_bounds(args: argparse.Namespace) -> int:
    t0 = _time.perf_counter()
    order = FractionalOrder(args.alpha)
    report: dict = {
        "alpha": order.alpha,
        "upper_bound": _bounds.upper_bound_b(order),
        "limit_upper_bound": _bounds.limit_upper_bound(),
    }
    if args.delta is not None:
        c = _bounds.lower_bound_constants(order, args.delta)
        report["lower_bound"] = c.T
        report["lower_bound_constants"] = {k: v for k, v in dataclasses.asdict(c).items() if k != "alpha"}
    report["manifest"] = _manifest(args, {}, [], t0)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    t0 = _time.perf_counter()
    order = FractionalOrder(args.alpha)
    config = _fode.SolverConfig(args.h, args.t_max, args.threshold)
    if args.cap is not None:
        traj = _fode.solve_capped(args.cap, args.v0, order, config)
    else:
        traj = _fode.solve(_fode.Nonlinearity.square(), args.v0, order, config)
    grids = {"time": {"step": config.step, "count": traj.samples.grid.count}}
    return _write_product(
        args, ["t", "v"], (traj.times, traj.values), grids, t0,
        status=traj.status, escape_time=traj.escape_time,
    )


def _cmd_blowup(args: argparse.Namespace) -> int:
    t0 = _time.perf_counter()
    order = FractionalOrder(args.alpha)
    config = _fode.SolverConfig(args.step, args.horizon)
    est = _fode.estimate_blowup(order, config)
    lower = _bounds.lower_bound_T(order, args.delta)
    upper = _bounds.upper_bound_b(order)
    if est.t_hi < lower or est.t_lo > upper + 0.01:
        raise ConsistencyError(
            f"numeric bracket [{est.t_lo}, {est.t_hi}] falls outside the theoretical "
            f"sandwich [{lower}, {upper}] (alpha={order.alpha}, delta={args.delta})"
        )
    report = {
        "alpha": order.alpha,
        "t_lo": est.t_lo,
        "t_hi": est.t_hi,
        "width": est.width,
        "sandwich": {"lower": lower, "upper": upper, "delta": args.delta},
        "refinement_trace": [
            {"step": s, "threshold": x, "escape_time": e} for (s, x, e) in est.refinement_trace
        ],
        "manifest": _manifest(args, {}, [], t0),
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_impulse(args: argparse.Namespace) -> int:
    t0 = _time.perf_counter()
    alphas = _parse_float_list(args.alphas, "--alphas")
    times = _parse_float_list(args.times, "--times")
    train = _impulse.ImpulseTrain(np.array(times))
    grid = TimeGrid.spanning(args.h, args.t_max)
    table = _impulse.impulse_table(train, alphas, grid)
    grids = {"time": {"step": grid.step, "count": grid.count}}
    return _write_product(args, ["t"] + table.column_labels, (table.times, *table.values.T), grids, t0)


def _read_sampled_csv(path: str) -> SampledFunction:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        rows = fh.readlines()
    if len(header.split(",")) < 2:
        raise ValueError(f"{path}: expected a CSV with header and columns t, f")
    if len(rows) < 2:  # checked before parsing: loadtxt warns on an empty body
        raise ValueError(f"{path}: need at least two samples")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:  # a non-numeric cell or a ragged row
        raise ValueError(f"{path}: {exc}") from exc
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected a CSV with header and columns t, f")
    t, f = data[:, 0], data[:, 1]
    if t.size < 2:
        raise ValueError(f"{path}: need at least two samples")
    if abs(t[0]) > 1e-12 * max(1.0, abs(t[-1])):
        raise ValueError(f"{path}: time column must start at 0, got {t[0]}")
    h = (t[-1] - t[0]) / (t.size - 1)
    if h <= 0.0:
        raise ValueError(f"{path}: time column must be increasing")
    expected = np.arange(t.size) * h
    if not np.max(np.abs(t - expected)) <= 1e-9 * max(h, t[-1]):  # a NaN time fails too
        raise ValueError(f"{path}: time column is not a uniform grid starting at 0")
    return SampledFunction(TimeGrid(h, t.size - 1), f)


def _cmd_caputo(args: argparse.Namespace) -> int:
    t0 = _time.perf_counter()
    order = FractionalOrder(args.alpha)
    f = _read_sampled_csv(args.input)
    if order.is_classical:
        result = classical_derivative(f)
    else:
        result = caputo_left(f, order)
    grids = {"time": {"step": f.grid.step, "count": f.grid.count}}
    return _write_product(args, ["t", "caputo"], (result.times, result.values), grids, t0)


def _parse_initial(kind: str, form: str, x: np.ndarray) -> np.ndarray:
    if kind == "minus-x":
        return 0.0 - x if form == "u" else (1.0 - x) / 2.0  # +0.0, not -0.0, at x = 0
    if kind == "market-critical":
        return np.zeros_like(x) if form == "u" else np.full_like(x, 0.5)
    if kind.startswith("constant:"):
        return np.full_like(x, float(kind.split(":", 1)[1]))
    raise ValueError(f"unknown --initial {kind!r}; use minus-x, market-critical or constant:<c>")


def _cmd_pde(args: argparse.Namespace) -> int:
    t0 = _time.perf_counter()
    order = FractionalOrder(args.alpha)
    spatial = _pde.SpatialGrid(args.x_min, args.x_max, args.cells)
    tgrid = TimeGrid.spanning(args.h, args.t_max)
    x = spatial.nodes(args.bc == "periodic")
    initial = _parse_initial(args.initial, args.form, x)

    if args.bc == "periodic":
        bc = _pde.BoundaryRule.periodic()
    elif args.initial == "minus-x":
        # inflow from the product-form reference, marched at the ladder's
        # threshold: the field's --threshold bounds the field, not v(t)
        config = _fode.SolverConfig(args.h, tgrid.horizon)
        traj = _fode.solve(_fode.Nonlinearity.square(), 1.0, order, config)
        if traj.status == "escaped" and traj.escape_time < args.t_max:
            raise ConsistencyError(
                f"product-form boundary data diverges at t = {traj.escape_time} "
                f"before the requested horizon {args.t_max}"
            )
        if args.form == "u":
            bc = _pde.BoundaryRule.dirichlet(lambda xx, tt: _pde.separable_solution(traj, xx, tt))
        else:
            bc = _pde.BoundaryRule.dirichlet(lambda xx, tt: _pde.market_density(traj, xx, tt))
    else:
        left, right = float(initial[0]), float(initial[-1])
        bc = _pde.BoundaryRule.dirichlet(
            lambda xx, tt: left if xx <= spatial.x_min else right
        )

    if args.form == "u":
        fieldhist = _pde.solve_u(initial, order, spatial, tgrid, bc, args.threshold)
    else:
        fieldhist = _pde.solve_rho(initial, order, spatial, tgrid, bc, escape_threshold=args.threshold)

    grids = {
        "time": {"step": tgrid.step, "count": fieldhist.time.count},
        "space": {"x_min": spatial.x_min, "x_max": spatial.x_max, "cells": spatial.cells},
    }
    return _write_product(
        args, ["t", "x", "value"], (fieldhist.times, fieldhist.x, fieldhist.slices), grids, t0,
        status=fieldhist.status, escape_index=fieldhist.escape_index,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracburgers",
        description="Numerical laboratory for time-fractional quadratic blow-up problems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bounds", help="closed-form blow-up time bounds as JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, default=None, help="also report the lower bound for this delta")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("solve", help="march the scalar fractional problem, CSV output")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--h", type=float, required=True, help="time step")
    p.add_argument("--t-max", type=float, required=True, help="horizon")
    p.add_argument("--cap", type=float, default=None, help="cap level for the truncated quadratic nonlinearity (>= 4)")
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=1e6, help="escape threshold")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("blowup", help="bracket the blow-up time, JSON report")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--step", type=float, default=2e-4,
                   help="step of the coarse rung, capped at 2 T_cmp / 100; the fine rung takes half (see estimate_blowup)")
    p.add_argument("--horizon", type=float, default=1.7)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="delta of the reported lower bound")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("impulse", help="impulse-response dataset, CSV output")
    p.add_argument("--alphas", default=DEFAULT_IMPULSE_ALPHAS, help="comma-separated orders")
    p.add_argument("--times", default=DEFAULT_IMPULSE_TIMES, help="comma-separated impulse times")
    p.add_argument("--h", type=float, default=0.01, help="sampling step")
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_impulse)

    p = sub.add_parser("caputo", help="apply the memory derivative to a sampled CSV function")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--input", required=True, help="CSV with header and columns t, f on a uniform grid")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_caputo)

    p = sub.add_parser("pde", help="march the space-time problem, long-format CSV output")
    p.add_argument("--form", choices=("u", "rho"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--h", type=float, required=True, help="time step")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--bc", choices=("dirichlet", "periodic"), required=True)
    p.add_argument("--initial", default="minus-x", help="minus-x | market-critical | constant:<c>")
    p.add_argument("--x-min", type=float, default=-1.0)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=1e6, help="escape threshold")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_pde)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _fode.NoBlowupDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConsistencyError, _pde.CflError, _fode.UnderResolvedLadder) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
