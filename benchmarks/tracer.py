"""Spans around the calls into each fracburgers layer, and the per-layer metrics.

The tracer replaces a public function at the binding its callers look up at
call time (for example ``fracburgers.fode.solve``, which ``estimate_blowup``
and ``solve_capped`` resolve through the module globals, or
``fracburgers.cli.caputo_left``, the name ``cli`` calls). Nothing under
``src/`` changes. Each span records its name, start, end, parent span and
operation id, plus counts computed from the call's arguments and result.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path
from time import perf_counter

from fracburgers import bounds, cli, fode, impulse, pde


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "error", "counts", "child_s")

    def __init__(self, name: str, start: float, parent: int | None, op_id: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op_id = op_id
        self.error = False
        self.counts: dict = {}
        self.child_s = 0.0  # children run one after another, so their sum is covered time

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _solve_counts(call: dict, traj) -> dict:
    steps = traj.escape_index if traj.escape_index is not None else traj.samples.grid.count
    # Step n of the fractional march takes n + 1 predictor and n corrector
    # multiply-adds (n >= 1), so N steps cost N^2; alpha = 1 keeps no history.
    macs = 0 if call["order"].is_classical else steps * steps
    cfg = call["config"]
    return {"steps": steps, "macs": macs, "step": cfg.step, "threshold": cfg.escape_threshold}


def _rl_counts(call: dict, result) -> dict:
    n = call["g"].grid.count
    return {"macs": (n - 1) ** 2 if n >= 2 else 0}  # full np.convolve of two n-1 arrays


def _caputo_counts(call: dict, result) -> dict:
    n = call["f"].grid.count
    return {"macs": n * n}  # full np.convolve of two length-n arrays


def _pde_counts(call: dict, fieldhist) -> dict:
    steps = fieldhist.escape_index if fieldhist.escape_index is not None else fieldhist.time.count
    nodes = fieldhist.x.size
    width = nodes if call["bc"].kind == "periodic" else nodes - 2
    # step n dots n - 1 past differences over every updated node
    return {"cell_steps": steps * nodes, "macs": width * steps * (steps - 1) // 2}


def _impulse_counts(call: dict, table) -> dict:
    return {"values": int(table.values.size)}


def _cli_counts(call: dict, rc) -> dict:
    argv = list(call["argv"] or [])

    def flag(name: str) -> str | None:
        return argv[argv.index(name) + 1] if name in argv[:-1] else None

    # CSV data products only: manifests carry a wall-clock duration, so their
    # length is not a repeatable count.
    out = flag("--out")
    written = sum(p.stat().st_size for p in Path(out).glob("*.csv")) if out and rc == 0 else 0
    src = flag("--input") if argv and argv[0] == "caputo" else None
    read = Path(src).stat().st_size if src and rc == 0 else 0
    return {"rc": rc, "bytes_written": written, "bytes_read": read}


# (module, attribute, span name, counts from (bound arguments, result))
TARGETS = [
    (cli, "main", "cli.main", _cli_counts),
    (fode, "estimate_blowup", "fode.estimate_blowup", None),
    (fode, "solve_capped", "fode.solve_capped", None),
    (fode, "solve", "fode.solve", _solve_counts),
    (fode, "volterra_residual", "fode.volterra_residual", None),
    (fode, "rl_fractional_integral", "frac_ops.rl_fractional_integral", _rl_counts),
    (cli, "caputo_left", "frac_ops.caputo_left", _caputo_counts),
    (pde, "solve_u", "pde.solve_u", _pde_counts),
    (pde, "solve_rho", "pde.solve_rho", _pde_counts),
    (bounds, "upper_bound_b", "bounds.upper_bound_b", None),
    (bounds, "lower_bound_T", "bounds.lower_bound_T", None),
    (impulse, "impulse_table", "impulse.impulse_table", _impulse_counts),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op_id: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.op_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, error: bool = False) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        span.error = error
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    def _wrap(self, original, name: str, counter):
        sig = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.close(idx, error=True)
                raise
            span = self.close(idx)
            if counter is not None:
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
                span.counts = counter(call.arguments, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter in TARGETS:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op_id": s.op_id, "error": s.error, "self_s": s.self_s, **s.counts}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def traced_pass(wl, meter, records: list) -> Tracer:
    """Run every input of the workload once with spans on; return the tracer."""
    tr = Tracer()
    tr.install()
    try:
        for inp in wl.inputs:
            tr.op_id = len(records)
            idx = tr.open("op")
            record = meter.run(wl, inp)
            tr.close(idx)
            records.append(record)
    finally:
        tr.uninstall()
    return tr


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _ladder(spans: list[Span]) -> tuple[float, float]:
    """(solves per bracket, steps of the two rungs the bracket reads / all steps)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.name == "fode.solve" and s.parent is not None and spans[s.parent].name == "fode.estimate_blowup":
            children.setdefault(s.parent, []).append(s)
    brackets = [i for i, s in enumerate(spans) if s.name == "fode.estimate_blowup"]
    solves = useful = total = 0
    for i in brackets:
        rungs = children.get(i, [])
        solves += len(rungs)
        total += sum(r.counts["steps"] for r in rungs)
        if spans[i].error or not rungs:
            continue  # no bracket was formed, so no rung was read
        top = max(r.counts["threshold"] for r in rungs)
        read = sorted((r for r in rungs if r.counts["threshold"] == top), key=lambda r: r.counts["step"])[:2]
        useful += sum(r.counts["steps"] for r in read)
    return _ratio(solves, len(brackets)), _ratio(useful, total)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""

    def pick(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    def total(items: list[Span], key: str) -> int:
        return sum(s.counts.get(key, 0) for s in items)

    def busy(items: list[Span]) -> float:
        return sum(s.duration for s in items)

    def own(items: list[Span]) -> float:
        return sum(s.self_s for s in items)

    solve = pick("fode.solve")
    rl = pick("frac_ops.rl_fractional_integral")
    caputo = pick("frac_ops.caputo_left")
    pdes = pick("pde.solve_u", "pde.solve_rho")
    bnds = pick("bounds.upper_bound_b", "bounds.lower_bound_T")
    imp = pick("impulse.impulse_table")
    clis = pick("cli.main")
    fode_all = [s for s in spans if s.name.startswith("fode.")]

    solve_s, steps, solve_macs = own(solve), total(solve, "steps"), total(solve, "macs")
    per_bracket, useful = _ladder(spans)
    frac_s, frac_macs = busy(rl) + busy(caputo), total(rl, "macs") + total(caputo, "macs")
    pde_s, cell_steps, pde_macs = own(pdes), total(pdes, "cell_steps"), total(pdes, "macs")
    values = total(imp, "values")
    cli_s = own(clis)
    written, read = total(clis, "bytes_written"), total(clis, "bytes_read")
    return {
        "fode.solve.calls": (len(solve), "count"),
        "fode.solve.steps": (steps, "count"),
        "fode.solve.self_s": (solve_s, "s"),
        "fode.solve.us_per_step": (_ratio(solve_s, steps, 1e6), "us"),
        "fode.solve.history_macs": (solve_macs, "count"),
        "fode.solve.ns_per_mac": (_ratio(solve_s, solve_macs, 1e9), "ns"),
        "fode.ladder.solves_per_bracket": (per_bracket, "count"),
        "fode.ladder.useful_step_ratio": (useful, "ratio"),
        "fode.estimate_blowup.self_s": (own(pick("fode.estimate_blowup")), "s"),
        "fode.volterra_residual.self_s": (own(pick("fode.volterra_residual")), "s"),
        "fode.errors": (sum(s.error for s in fode_all), "count"),
        "frac_ops.rl_fractional_integral.s": (busy(rl), "s"),
        "frac_ops.rl_fractional_integral.macs": (total(rl, "macs"), "count"),
        "frac_ops.caputo_left.s": (busy(caputo), "s"),
        "frac_ops.caputo_left.macs": (total(caputo, "macs"), "count"),
        "frac_ops.ns_per_mac": (_ratio(frac_s, frac_macs, 1e9), "ns"),
        "pde.solve.calls": (len(pdes), "count"),
        "pde.solve.self_s": (pde_s, "s"),
        "pde.cell_steps": (cell_steps, "count"),
        "pde.ns_per_cell_step": (_ratio(pde_s, cell_steps, 1e9), "ns"),
        "pde.history_macs": (pde_macs, "count"),
        "pde.ns_per_mac": (_ratio(pde_s, pde_macs, 1e9), "ns"),
        "pde.errors": (sum(s.error for s in pdes), "count"),
        "bounds.calls": (len(bnds), "count"),
        "bounds.s": (busy(bnds), "s"),
        "impulse.impulse_table.s": (busy(imp), "s"),
        "impulse.values": (values, "count"),
        "impulse.ns_per_value": (_ratio(busy(imp), values, 1e9), "ns"),
        "cli.main.calls": (len(clis), "count"),
        "cli.self_s": (cli_s, "s"),
        "cli.bytes_written": (written, "bytes"),
        "cli.bytes_read": (read, "bytes"),
        "cli.mb_per_s": (_ratio(written + read, cli_s, 1e-6), "MB/s"),
        "cli.nonzero_exits": (sum(s.counts.get("rc", 0) != 0 for s in clis), "count"),
    }
