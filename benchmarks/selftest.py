"""Checks of the benchmark itself (not part of the library test suite).

    python3 -m pytest -q benchmarks/selftest.py

Inputs and the per-layer counts of a traced pass must repeat exactly for a
seed, a different seed must change the inputs, and a directory without the
program must make the runner fail without printing a result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (fixes the BLAS thread count before numpy loads)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

workloads, tracer = run._import_program()

COUNT_UNITS = ("count", "bytes")


def _inputs(wl) -> list:
    return [{k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in inp.items()}
            for inp in wl.inputs]


def _counts(name: str, seed: int, tmp_path: Path) -> tuple[dict, list]:
    wl = workloads.WORKLOADS[name](seed, tmp_path)
    records: list = []
    tr = tracer.traced_pass(wl, workloads.Meter(), records)
    assert all(r.outcome.ok or r.outcome.known_defect for r in records)
    metrics = tracer.layer_metrics(tr.spans)
    counts = {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}
    return counts, [r.outcome for r in records]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = _inputs(make(11, tmp_path))
    assert first == _inputs(make(11, tmp_path))
    assert first != _inputs(make(12, tmp_path))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    counts, outcomes = _counts(name, 5, tmp_path / "a")
    again, outcomes_again = _counts(name, 5, tmp_path / "b")
    assert counts == again
    assert outcomes == outcomes_again
    assert sum(v for k, v in counts.items() if k.endswith((".calls", ".values"))) > 0


@pytest.mark.parametrize("seed", [3, 4])
def test_ladder_sweep_fails_exactly_the_strata_below_the_defect_edge(seed, tmp_path):
    wl = workloads.WORKLOADS["ladder-sweep"](seed, tmp_path)
    alphas = sorted(inp["alpha"] for inp in wl.inputs)
    assert len(alphas) == 64 and alphas[0] < 0.02 and alphas[-1] == 1.0
    assert wl.inputs[0] == {"alpha": 1.0}
    below = [a for a in alphas if a <= workloads.DEFECT_EDGE]
    assert len(below) == workloads.DEFECT_STRATA
    for alpha in below + [alphas[len(below)]]:  # and the first stratum above the edge
        _, outcome = workloads.run_op(wl, {"alpha": alpha})
        assert outcome.ok == (alpha > workloads.DEFECT_EDGE)
        assert outcome.known_defect == (not outcome.ok)


def test_tail_has_ten_samples_beyond():
    for n in (11, 16, 60, 208, 1000):
        times = [float(i) for i in range(n)]
        value, pct = run.tail(times)
        assert sum(t > value for t in times) >= run.TAIL_BEYOND
        assert value >= np.percentile(times, 50) or n < 2 * run.TAIL_BEYOND


def test_runner_fails_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / bench.name / "run.py"), "--workload", "long-march",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
