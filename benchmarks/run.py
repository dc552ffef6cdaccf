"""Run one fracburgers benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload ladder-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then a closed loop of whole passes over the seeded inputs for
``--seconds``. The times of interpreter-bound operations are wall times
scaled by a reference kernel timed beside each of them (``workloads.Meter``);
the raw wall times are printed and written beside them.
``--trace 1`` does the same, then traces exactly one pass over the
workload's inputs and reports the per-layer metrics. Every metric is printed
as ``name = value unit``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics of the mode. Results
and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # held fixed, and never above nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import fracburgers from this checkout's src/ and the workload modules."""
    if not (SRC / "fracburgers" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'fracburgers'} not found; run from a checkout that holds src/")
    sys.path.insert(0, str(SRC))
    import fracburgers

    if Path(fracburgers.__file__).resolve().parent != (SRC / "fracburgers").resolve():
        sys.exit(f"error: imported fracburgers from {fracburgers.__file__}, not {SRC}")
    import tracer
    import workloads

    return workloads, tracer


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def _src_digest() -> str:
    """sha256 over src/ Python files: names the code even where there is no .git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(times: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with >= TAIL_BEYOND samples beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    while n - math.ceil(pct * n / 100) < TAIL_BEYOND:
        pct -= 1
    return sorted(times)[max(math.ceil(pct * n / 100) - 1, 0)], pct


def input_medians(records: list, key: str) -> list[float]:
    """Each distinct input's median time (attribute `key`) over its repeats in the run."""
    times: dict[int, list[float]] = {}
    for r in records:
        times.setdefault(id(r.inp), []).append(getattr(r, key))
    return [statistics.median(t) for t in times.values()]


def setup_times(args, meter, scaled: bool) -> list[tuple[float, float]]:
    """(wall, reported) times of fresh interpreters that import fracburgers and run the warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    return [
        meter.call(scaled, lambda: subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                                          stdout=subprocess.DEVNULL))
        for _ in range(SETUP_REPEATS)
    ]


def why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def describe(inp: dict) -> dict:
    return {k: (v if isinstance(v, (int, float, str, list)) else "<array>") for k, v in inp.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads, tracer = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warmup = wl.inputs[0]
        if args.probe:
            wl.execute(warmup)
            return 0
        return measure(args, wl, warmup, workloads, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary(records: list, key: str) -> dict:
    """op_s.p50, op_s.tail and ops_per_s of `records`, from their times `key`."""
    per_input = input_medians(records, key)
    tail_s, tail_pct = tail(per_input)
    return {
        "op_s.p50": statistics.median(per_input),
        "op_s.tail": tail_s,
        "ops_per_s": len(records) / sum(getattr(r, key) for r in records),
        "tail_pct": tail_pct,
        "inputs": len(per_input),
    }


def measure(args, wl, warmup: dict, workloads, tracer) -> int:
    purpose = why(args.workload)
    env = environment(args)
    # One core for the run and its set-up children, so that a reference kernel
    # and the time it scales are taken on the same core.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    meter = workloads.Meter()
    setups = setup_times(args, meter, wl.scaled(warmup))
    meter.run(wl, warmup)

    records: list = []
    elapsed = workloads.closed_loop(wl, meter, args.seconds, records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats, wall = summary(records, "s"), summary(records, "wall_s")
    n_failed = sum(not r.outcome.ok for r in records)
    e2e = {
        "op_s.p50": stats["op_s.p50"],
        "op_s.tail": stats["op_s.tail"],
        "ops_per_s": stats["ops_per_s"],
        "ok_frac": 1.0 - n_failed / len(records),
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    wall_e2e = {k: wall[k] for k in ("op_s.p50", "op_s.tail", "ops_per_s")}
    wall_e2e["setup_s"] = statistics.median(w for w, _ in setups)
    print(f"workload {args.workload}: {purpose}")
    print(f"environment {json.dumps(env)}")
    for name, value in e2e.items():
        print(f"{name} = {value!r} {END_TO_END_UNITS[name]}")
    print(f"  interpreter-bound times scaled by the reference kernel (REFERENCE_S = "
          f"{workloads.REFERENCE_S} s); raw wall: "
          + ", ".join(f"{k} = {v:.6g} {END_TO_END_UNITS[k]}" for k, v in wall_e2e.items()))
    print(f"  {len(records)} ops, {len(records) // stats['inputs']} passes over {stats['inputs']} "
          f"inputs in {elapsed:.2f} s; op_s.* are medians over the inputs of each input's median; "
          f"op_s.tail is p{stats['tail_pct']} of {stats['inputs']}; setup_s is the median of "
          f"{SETUP_REPEATS} set-ups")
    print(f"  fail_frac = {n_failed / len(records)!r} ({n_failed} of {len(records)} ops failed)")

    per_layer = {}
    if args.trace:
        first = len(records)
        tr = tracer.traced_pass(wl, meter, records)
        per_layer = tracer.layer_metrics(tr.spans)
        traced = statistics.median(r.s for r in records[first:])
        per_layer["trace.op_s.p50"] = (traced, "s")
        # medians over all ops on both sides: one traced pass against the untraced run
        per_layer["trace.overhead_s"] = (traced - statistics.median(r.s for r in records[:first]), "s")
        per_layer["trace.spans"] = (len(tr.spans), "count")
        tr.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        for name, (value, unit) in per_layer.items():
            print(f"{name} = {value!r} {unit}")

    failures = [(describe(r.inp), r.outcome) for r in records if not r.outcome.ok]
    known = [f for f in failures if f[1].known_defect]
    unexpected = [f for f in failures if not f[1].known_defect]
    if known:
        alphas = sorted({f[0]["alpha"] for f in known})
        print(f"  known defects: {len(known)} failed ops at alpha in [{alphas[0]:.4f}, "
              f"{alphas[-1]:.4f}] (ROADMAP Known defect 1, the under-resolved ladder, at every "
              f"alpha <= {workloads.DEFECT_EDGE}; and the lower bound below alpha ~0.0074); "
              f"counted in failed and ok_frac")
    for inp, o in unexpected[:5]:
        print(f"  FAILED {inp}: {o.reason}")

    metrics = per_layer if args.trace else {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        **result,
        "environment": env,
        "why": purpose,
        "end_to_end": e2e,
        "end_to_end_wall": wall_e2e,
        "reference_s": workloads.REFERENCE_S,
        "op_s.tail_percentile": stats["tail_pct"],
        "op_s.samples": stats["inputs"],
        "setup_runs_s": [{"wall_s": w, "s": x} for w, x in setups],
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        "ops": [{"input": describe(r.inp), "wall_s": r.wall_s, "s": r.s,
                 "reason": r.outcome.reason, "known_defect": r.outcome.known_defect}
                for r in records],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
