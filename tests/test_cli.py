"""Command-line surface: JSON reports, CSV reproducibility, manifest
round-trips, and the documented exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracburgers import FractionalOrder, SolverConfig, cli, estimate_blowup, gamma, lower_bound_T
from fracburgers import fode as _fode
from fracburgers.cli import _read_sampled_csv, main


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def reference_write_csv(path, header, columns):
    """csv.writer over the rows of `columns`, one repr(float(v)) per cell; a
    (times, x, field) long-format product gives one row per (t, x) pair."""
    if np.ndim(columns[-1]) == 2:
        times, x, field = columns
        rows = ((t, xx, field[i, j]) for i, t in enumerate(times) for j, xx in enumerate(x))
    else:
        rows = zip(*columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 123.0, math.nan, math.inf, -math.inf, 0.1 + 0.2, 1 / 3, -2.5e-310]

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands():
    """The argv of each `fracburgers` command in the README's "## CLI" block, in order.

    Continuation lines are joined and comments dropped, as a shell reads them.
    """
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    lines = (shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines())
    return [words[1:] for words in lines if words and words[0] == "fracburgers"]


README_COMMANDS = readme_cli_commands()
# the data products, each written into its --out directory
README_PRODUCTS = [argv for argv in README_COMMANDS if "--out" in argv]


class TestCsvWriter:
    @pytest.mark.parametrize("rows_per_write", [1, 5, 4096])
    def test_columns_match_reference_writer(self, tmp_path, monkeypatch, rows_per_write):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows_per_write)
        a = np.array(SPECIAL_FLOATS)
        columns = (np.arange(a.size) * 0.1, a, a[::-1].copy(), -a)
        header = ["t", "alpha=0.5", "alpha=1", "value"]
        cli._write_csv(tmp_path / "new.csv", header, columns)
        reference_write_csv(tmp_path / "ref.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_long_format_matches_reference_writer(self, tmp_path):
        a = np.array(SPECIAL_FLOATS)
        with np.errstate(invalid="ignore"):  # nan and inf products
            columns = (a[:5], a, a[:5, None] * a[None, :])
        cli._write_csv(tmp_path / "new.csv", ["t", "x", "value"], columns)
        reference_write_csv(tmp_path / "ref.csv", ["t", "x", "value"], columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_header_only_when_no_rows(self, tmp_path):
        cli._write_csv(tmp_path / "new.csv", ["t", "v"], (np.empty(0), np.empty(0)))
        assert (tmp_path / "new.csv").read_bytes() == b"t,v\n"

    @pytest.mark.parametrize("i", range(6), ids=["solve", "solve-capped", "impulse", "caputo", "pde-u", "pde-rho"])
    def test_readme_products_match_reference_writer(self, tmp_path, monkeypatch, i):
        assert len(README_PRODUCTS) == 6
        argv = README_PRODUCTS[i]
        written = []
        write_csv = cli._write_csv

        def capture(path, header, columns):
            written.append((header, columns))
            write_csv(path, header, columns)

        monkeypatch.chdir(tmp_path)
        if argv[0] == "caputo":  # its input is the solve.csv of the last solve before it
            assert main([prior for prior in README_PRODUCTS[:i] if prior[0] == "solve"][-1]) == 0
        monkeypatch.setattr(cli, "_write_csv", capture)
        assert main(argv) == 0
        [(header, columns)] = written
        reference_write_csv(tmp_path / "ref.csv", header, columns)
        out = Path(argv[argv.index("--out") + 1])
        assert (out / f"{argv[0]}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_readme_cli_block_runs(self, tmp_path, monkeypatch, capsys):
        # every command of the README's CLI block, in order, as printed there
        monkeypatch.chdir(tmp_path)
        assert {argv[0] for argv in README_COMMANDS} == {"bounds", "solve", "blowup", "impulse", "caputo", "pde"}
        for argv in README_COMMANDS:
            assert main(argv) == 0, (argv, capsys.readouterr().err)


class TestBounds:
    def test_report_values(self, capsys):
        rc, report = run_json(capsys, ["bounds", "--alpha", "0.5", "--delta", "3"])
        assert rc == 0
        assert report["upper_bound"] == pytest.approx(4 / math.pi, rel=1e-13)
        assert report["limit_upper_bound"] == pytest.approx(1.52620511, abs=5e-9)
        assert report["lower_bound"] == pytest.approx(1 / (20 * math.pi), rel=1e-12)
        constants = report["lower_bound_constants"]
        assert constants["kappa"] == pytest.approx(1.0, abs=1e-14)
        assert constants["eta"] == pytest.approx(4.0, abs=1e-13)
        assert report["manifest"]["subcommand"] == "bounds"

    def test_no_delta_omits_lower_bound(self, capsys):
        rc, report = run_json(capsys, ["bounds", "--alpha", "0.25"])
        assert rc == 0
        assert "lower_bound" not in report

    @pytest.mark.parametrize("command", [["bounds"], ["blowup"]])
    @pytest.mark.parametrize("delta", ["5e-324", "1e-300", "1e300"])
    def test_delta_whose_constants_leave_double_precision_exits_3(self, capsys, command, delta):
        assert main(command + ["--alpha", "0.5", "--delta", delta]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: lower-bound constants leave double precision") and err.count("\n") == 1

    @pytest.mark.parametrize("alpha", ["0.05", "0.1"])
    @pytest.mark.parametrize("exponent", range(-15, 101))
    def test_every_refused_delta_names_double_precision(self, capsys, alpha, exponent):
        # at the underflow edge of the lower bound a subnormal d or T has lost
        # digits: a refusal there is no implementation bug and no sign error
        rc = main(["bounds", "--alpha", alpha, "--delta", f"1e{exponent}"])
        err = capsys.readouterr().err
        assert rc in (0, 3)
        if rc == 3:
            assert err.startswith("error: lower-bound constants leave double precision")

    @pytest.mark.parametrize("alpha, delta", [("0.05", "1e-5"), ("0.05", "1e31"), ("0.1", "1e59")])
    def test_subnormal_constants_exit_3(self, capsys, alpha, delta):
        assert main(["bounds", "--alpha", alpha, "--delta", delta]) == 3
        assert "leave double precision" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0.3", "0.5", "1"])
    @pytest.mark.parametrize("delta", ["1e12", "1e50", "1e100"])
    def test_huge_delta_exits_0(self, capsys, alpha, delta):
        rc, report = run_json(capsys, ["bounds", "--alpha", alpha, "--delta", delta])
        assert rc == 0
        assert report["lower_bound"] == lower_bound_T(FractionalOrder(float(alpha)), float(delta))
        assert 0.0 < report["lower_bound"] < report["upper_bound"]

    def test_tiny_delta_exits_0(self, capsys):
        rc, report = run_json(capsys, ["bounds", "--alpha", "0.5", "--delta", "1e-16"])
        assert rc == 0
        assert 0.0 < report["lower_bound"] < report["upper_bound"]
        rc, report = run_json(capsys, ["blowup", "--alpha", "0.5", "--delta", "1e-16"])
        assert rc == 0
        assert report["sandwich"]["lower"] == lower_bound_T(FractionalOrder(0.5), 1e-16)

    def test_bad_alpha_exits_2(self):
        assert main(["bounds", "--alpha", "1.5"]) == 2
        assert main(["bounds", "--alpha", "0"]) == 2


class TestSolve:
    def test_trajectory_csv(self, tmp_path):
        rc = main([
            "solve", "--alpha", "0.5", "--h", "0.001", "--t-max", "0.1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        header, data = read_csv(tmp_path / "solve.csv")
        assert header == ["t", "v"]
        assert data.shape == (101, 2)
        assert data[0, 1] == 1.0
        manifest = json.loads((tmp_path / "solve_manifest.json").read_text())
        assert manifest["status"] == "completed"

    def test_cap_below_four_exits_2(self, tmp_path):
        rc = main([
            "solve", "--alpha", "0.5", "--h", "0.001", "--t-max", "0.1",
            "--cap", "3", "--out", str(tmp_path),
        ])
        assert rc == 2

    def test_first_step_without_a_root_exits_2(self, tmp_path, capsys):
        # the step 1e-4 is longer than the blow-up time 1.4e-6 of alpha 0.1
        rc = main(["solve", "--alpha", "0.1", "--h", "1e-4", "--t-max", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "first marching step has no finite value" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_manifest_rerun_reproduces_bytes(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        argv = ["solve", "--alpha", "0.7", "--h", "0.002", "--t-max", "0.3"]
        assert main(argv + ["--out", str(out1)]) == 0
        manifest = json.loads((out1 / "solve_manifest.json").read_text())
        p = manifest["parameters"]
        replay = [
            "solve", "--alpha", repr(p["alpha"]), "--h", repr(p["h"]),
            "--t-max", repr(p["t_max"]), "--v0", repr(p["v0"]),
            "--threshold", repr(p["threshold"]),
        ]
        if p["cap"] is not None:
            replay += ["--cap", repr(p["cap"])]
        assert main(replay + ["--out", str(out2)]) == 0
        assert (out1 / "solve.csv").read_bytes() == (out2 / "solve.csv").read_bytes()


class TestBlowup:
    def test_classical_report(self, capsys):
        rc, report = run_json(capsys, ["blowup", "--alpha", "1"])
        assert rc == 0
        assert report["t_lo"] <= 1.0 <= report["t_hi"]
        assert report["width"] <= 0.02
        assert report["sandwich"]["upper"] == 1.0
        assert len(report["refinement_trace"]) == 2  # the two rungs the bracket reads

    def test_ladder_marches_every_rung_at_1e10(self, capsys):
        # the ladder marches from the capped seed, and its finest rung loses its
        # root after 298 steps, well before any value reaches 1e10
        rc, report = run_json(capsys, ["blowup", "--alpha", "0.2241144715294"])
        assert rc == 0
        assert [e["threshold"] for e in report["refinement_trace"]] == [1e10] * 2
        finest = report["refinement_trace"][-1]
        assert round(finest["escape_time"] / finest["step"]) == 298
        assert (report["t_lo"], report["t_hi"]) == (0.004056226777327431, 0.004097198764977204)
        assert main(["blowup", "--alpha", "0.5", "--threshold", "1e6"]) == 2  # no such option

    def test_small_alpha_ladder_is_resolved(self, capsys):
        # T = 1.397e-6 at alpha 0.1: the capped seed gives the finest rung 241 steps
        rc, report = run_json(capsys, ["blowup", "--alpha", "0.1"])
        assert rc == 0
        finest = report["refinement_trace"][-1]
        assert round(finest["escape_time"] / finest["step"]) >= 100
        assert report["t_lo"] <= 1.3972e-6 <= report["t_hi"]

    def test_under_resolved_ladder_exits_3(self, capsys, monkeypatch):
        # a gate band that no ladder falls in: every bracket is refused
        monkeypatch.setattr(_fode, "GATE_BAND", (0.5, 0.5))
        assert main(["blowup", "--alpha", "0.5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the ladder is under-resolved") and err.count("\n") == 1

    def test_underflowing_seed_cap_exits_2(self, capsys):
        assert main(["blowup", "--alpha", "0.0015"]) == 2
        assert "alpha 0.0015" in capsys.readouterr().err

    # the acceptance alphas, the edge alpha and three alphas whose ladder
    # moves by an escape step between the thresholds 1e6 and 1e10
    @pytest.mark.parametrize("alpha", ["0.3", "0.5", "0.7", "0.9", "1", "0.2241144715294", "0.2448717948717949",
                                       "0.5615384615384615", "0.9512820512820513"])
    def test_library_ladder_is_the_cli_ladder(self, capsys, alpha):
        rc, report = run_json(capsys, ["blowup", "--alpha", alpha])
        assert rc == 0
        est = estimate_blowup(FractionalOrder(float(alpha)), SolverConfig(2e-4, 1.7))
        trace = [(e["step"], e["threshold"], e["escape_time"]) for e in report["refinement_trace"]]
        assert (report["t_lo"], report["t_hi"], trace) == (est.t_lo, est.t_hi, est.refinement_trace)

    def test_unrepresentable_lower_bound_exits_3(self, capsys):
        assert main(["blowup", "--alpha", "0.005"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_no_blowup_exits_4(self):
        rc = main(["blowup", "--alpha", "0.9", "--horizon", "0.05", "--step", "0.001"])
        assert rc == 4

    @pytest.mark.parametrize("argv, rung", [
        # the fine rung is refused before any march: the step halves to 0, or horizon / step overflows
        (["--step", "5e-324", "--horizon", "1e-300"], "ladder rung 1 (step 0.0"),
        (["--step", "1e-300", "--horizon", "1.5e8"], "ladder rung 1 (step 5e-301"),
    ])
    def test_refused_rung_exits_2_naming_the_rung(self, capsys, monkeypatch, argv, rung):
        monkeypatch.setattr(_fode, "solve", lambda *args, **kwargs: pytest.fail("a rung was marched"))
        assert main(["blowup", "--alpha", "0.5"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rung}") and err.count("\n") == 1
        assert f"the seed step {argv[1]}" in err

    def test_refinements_flag_is_refused(self, capsys):
        # the ladder marches two rungs; a --refinements is an error, not ignored
        assert main(["blowup", "--alpha", "0.5", "--refinements", "1"]) == 2
        assert "unrecognized arguments: --refinements" in capsys.readouterr().err

    def test_in_process_report_matches_a_fresh_process(self, capsys):
        # the parser and nothing else outlives a call of main, so a process
        # that ran other commands first prints the report of a fresh one
        assert main(["bounds", "--alpha", "0.3"]) == 0
        assert main(["blowup", "--alpha", "0.3"]) == 0
        capsys.readouterr()
        _, report = run_json(capsys, ["blowup", "--alpha", "0.5"])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = subprocess.run(
            [sys.executable, "-m", "fracburgers.cli", "blowup", "--alpha", "0.5"],
            env=env, check=True, capture_output=True, text=True,
        )
        fresh_report = json.loads(fresh.stdout)
        for r in (report, fresh_report):
            del r["manifest"]["duration_seconds"]
        assert json.dumps(report) == json.dumps(fresh_report)


class TestImpulse:
    def test_default_dataset(self, tmp_path):
        rc = main(["impulse", "--out", str(tmp_path)])
        assert rc == 0
        header, data = read_csv(tmp_path / "impulse.csv")
        assert header[0] == "t"
        assert len(header) == 9  # t plus the eight caption orders
        assert data.shape[0] == 501

    def test_byte_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["impulse", "--out", str(out1)]) == 0
        assert main(["impulse", "--out", str(out2)]) == 0
        assert (out1 / "impulse.csv").read_bytes() == (out2 / "impulse.csv").read_bytes()


class TestCaputo:
    def _write_linear(self, path, h=0.001, n=500):
        with open(path, "w", newline="\n") as fh:
            fh.write("t,f\n")
            for j in range(n + 1):
                t = j * h
                fh.write(f"{t!r},{t!r}\n")

    def test_linear_input_matches_closed_form(self, tmp_path):
        src = tmp_path / "f.csv"
        self._write_linear(src)
        rc = main(["caputo", "--alpha", "0.5", "--input", str(src), "--out", str(tmp_path)])
        assert rc == 0
        _, data = read_csv(tmp_path / "caputo.csv")
        t = data[1:, 0]
        expected = t ** 0.5 / gamma(1.5)
        np.testing.assert_allclose(data[1:, 1], expected, rtol=1e-10)

    def test_classical_order_takes_backward_differences(self, tmp_path):
        src = tmp_path / "f.csv"
        self._write_linear(src)
        rc = main(["caputo", "--alpha", "1", "--input", str(src), "--out", str(tmp_path)])
        assert rc == 0
        _, data = read_csv(tmp_path / "caputo.csv")
        np.testing.assert_allclose(data[1:, 1], 1.0, rtol=1e-12)

    def test_non_uniform_grid_exits_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("t,f\n0.0,0.0\n0.1,0.1\n0.3,0.3\n0.4,0.4\n")
        rc = main(["caputo", "--alpha", "0.5", "--input", str(src), "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["caputo", "--alpha", "0.5", "--input", str(tmp_path / "nope.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "text",
        [
            "t,f\n0.0,0.0\n0.1,x\n0.2,0.2\n",  # a non-numeric cell
            "t\n0.0\n0.1\n0.2\n",  # one column
            "t,f\n0.0,0.0\n",  # one sample
            "t,f\n0.0,0.0\nnan,0.1\n0.2,0.2\n",  # a NaN time
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, text):
        src = tmp_path / "bad.csv"
        src.write_text(text)
        rc = main(["caputo", "--alpha", "0.5", "--input", str(src), "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "caputo.csv").exists()

    def test_reads_a_solve_product(self, tmp_path):
        # the CSV a solve writes is a valid caputo input, read back bit for bit
        assert main(["solve", "--alpha", "0.5", "--h", "1e-3", "--t-max", "0.5", "--cap", "10", "--out", str(tmp_path)]) == 0
        _, data = read_csv(tmp_path / "solve.csv")
        f = _read_sampled_csv(str(tmp_path / "solve.csv"))
        np.testing.assert_array_equal(f.values, data[:, 1])
        assert f.grid.count == data.shape[0] - 1


class TestPde:
    def test_long_format_csv(self, tmp_path):
        rc = main([
            "pde", "--form", "rho", "--alpha", "0.5", "--cells", "16",
            "--h", "0.0001", "--t-max", "0.005", "--bc", "periodic",
            "--initial", "market-critical", "--out", str(tmp_path),
        ])
        assert rc == 0
        header, data = read_csv(tmp_path / "pde.csv")
        assert header == ["t", "x", "value"]
        assert data.shape == (51 * 16, 3)
        assert np.all(data[:, 2] == 0.5)

    def test_constant_initial_dirichlet(self, tmp_path):
        rc = main([
            "pde", "--form", "u", "--alpha", "0.75", "--cells", "16",
            "--h", "0.0001", "--t-max", "0.002", "--bc", "dirichlet",
            "--initial", "constant:0.25", "--out", str(tmp_path),
        ])
        assert rc == 0
        _, data = read_csv(tmp_path / "pde.csv")
        assert np.all(data[:, 2] == 0.25)

    def test_readme_dirichlet_product_has_no_negative_zero(self, tmp_path):
        # the node x = 0 of the minus-x datum starts at +0.0
        rc = main([
            "pde", "--form", "u", "--alpha", "0.5", "--cells", "100",
            "--h", "1e-5", "--t-max", "0.002", "--bc", "dirichlet",
            "--initial", "minus-x", "--out", str(tmp_path),
        ])
        assert rc == 0
        with open(tmp_path / "pde.csv", newline="") as fh:
            fields = [v for row in csv.reader(fh) for v in row]
        assert "0.0" in fields
        assert "-0.0" not in fields

    def test_cfl_violation_exits_3(self, tmp_path):
        rc = main([
            "pde", "--form", "u", "--alpha", "0.5", "--cells", "200",
            "--h", "0.001", "--t-max", "0.01", "--bc", "dirichlet",
            "--initial", "minus-x", "--out", str(tmp_path),
        ])
        assert rc == 3

    def test_escape_at_the_first_step_of_a_long_horizon(self, tmp_path):
        # 1e12 steps to the horizon: only the slices marched may be held
        rc = main([
            "pde", "--form", "u", "--alpha", "0.5", "--cells", "64", "--h", "1e-12",
            "--t-max", "1", "--bc", "periodic", "--initial", "constant:2",
            "--threshold", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "pde_manifest.json").read_text())
        assert manifest["status"] == "escaped"
        assert manifest["escape_index"] == 1
        _, data = read_csv(tmp_path / "pde.csv")
        assert np.unique(data[:, 0]).tolist() == [0.0, 1e-12]
        assert data.shape == (2 * 64, 3)

    def test_one_step_dirichlet_minus_x(self, tmp_path):
        # the product-form boundary march spans the same single step
        rc = main([
            "pde", "--form", "u", "--alpha", "0.5", "--cells", "8", "--h", "0.01",
            "--t-max", "0.01", "--bc", "dirichlet", "--initial", "minus-x", "--out", str(tmp_path),
        ])
        assert rc == 0
        _, data = read_csv(tmp_path / "pde.csv")
        assert np.unique(data[:, 0]).tolist() == [0.0, 0.01]

    @pytest.mark.parametrize("threshold, escape_index", [("1.2", 180), ("1", 1)])
    def test_field_threshold_leaves_the_inflow_reference_alone(self, tmp_path, threshold, escape_index):
        # v(0.1) = 1.955 passes both thresholds; only the field escapes them
        rc = main([
            "pde", "--form", "u", "--alpha", "0.5", "--cells", "16", "--h", "1e-4",
            "--t-max", "0.1", "--bc", "dirichlet", "--initial", "minus-x",
            "--threshold", threshold, "--out", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "pde_manifest.json").read_text())
        assert manifest["status"] == "escaped"
        assert manifest["escape_index"] == escape_index

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("form", ["u", "rho"])
    def test_overflowing_first_slice_exits_2_without_a_warning(self, tmp_path, capsys, form, bc):
        # the flux of the minus-x datum on [-1, 1e300] overflows at the first step
        rc = main([
            "pde", "--form", form, "--alpha", "0.5", "--cells", "8", "--h", "1e-3",
            "--t-max", "0.01", "--bc", bc, "--initial", "minus-x", "--x-max", "1e300",
            "--out", str(tmp_path),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: first marching step produced a non-finite slice\n"

    def test_unknown_initial_exits_2(self, tmp_path):
        rc = main([
            "pde", "--form", "u", "--alpha", "0.5", "--cells", "16",
            "--h", "0.0001", "--t-max", "0.002", "--bc", "periodic",
            "--initial", "bogus", "--out", str(tmp_path),
        ])
        assert rc == 2


STEP_INVALID = "error: step must be finite and > 0"
HORIZON_INVALID = "error: horizon must be finite and > 0"
RATIO_INVALID = "error: horizon / step must be finite"
STEP_OVER_HORIZON = "error: step 0.02 must not exceed horizon 0.005"


# Each value goes in as "--flag=value": argparse reads a bare "-1e-3" as an
# option, not a number. A finite ratio, however large, is not refused (there
# is no step budget), so the grid holds no such pair.
@pytest.mark.parametrize("bad", [
    ("0", "0.01", STEP_INVALID),
    ("-1e-3", "0.01", STEP_INVALID),
    ("1e-3", "inf", HORIZON_INVALID),
    ("nan", "0.01", STEP_INVALID),
    ("1e-3", "nan", HORIZON_INVALID),
    ("-inf", "0.01", STEP_INVALID),
    ("1e-3", "-1e300", HORIZON_INVALID),
    ("1e-300", "1e300", RATIO_INVALID),
    ("5e-324", "1e300", RATIO_INVALID),
    ("5e-324", "0.01", RATIO_INVALID),
    ("0.02", "0.005", STEP_OVER_HORIZON),  # a march would pass the horizon
])
@pytest.mark.parametrize("command", [
    (["impulse"], "--h", "--t-max"),
    (["pde", "--form", "u", "--alpha", "0.5", "--cells", "16", "--bc", "periodic", "--initial", "constant:1"],
     "--h", "--t-max"),
    (["solve", "--alpha", "0.5"], "--h", "--t-max"),
    (["blowup", "--alpha", "0.5"], "--step", "--horizon"),
])
def test_nonpositive_or_infinite_step_and_horizon_exit_2(tmp_path, capsys, command, bad):
    argv, step_flag, horizon_flag = command
    step, horizon, message = bad
    out = [] if argv[0] == "blowup" else ["--out", str(tmp_path)]
    rc = main(argv + [f"{step_flag}={step}", f"{horizon_flag}={horizon}"] + out)
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)


# the options of each subcommand at typical values; None leaves one out
TYPICAL_OPTIONS = {
    "bounds": {"--alpha": "0.5", "--delta": "0.5"},
    "solve": {"--alpha": "0.5", "--h": "0.01", "--t-max": "1", "--cap": None, "--v0": "1", "--threshold": "1e6"},
    "blowup": {"--alpha": "0.5", "--step": "0.01", "--delta": "0.5"},
    "impulse": {"--alphas": "0.5,1", "--times": "1,2", "--h": "0.01", "--t-max": "3"},
    "caputo": {"--alpha": "0.5"},
    "pde": {"--alpha": "0.5", "--cells": "8", "--h": "1e-3", "--t-max": "0.01", "--initial": "minus-x",
            "--x-min": "-1", "--x-max": "1", "--threshold": "1e6"},
}
# (subcommand, flag, template, typical value): a drawn value v goes in as
# "flag=template.format(v)"; --alphas and --times get it as one entry
FLOAT_FLAGS = [
    ("bounds", "--alpha", "{}", "0.5"),
    ("bounds", "--delta", "{}", "0.5"),
    ("solve", "--alpha", "{}", "0.5"),
    ("solve", "--threshold", "{}", "1e6"),
    ("solve", "--v0", "{}", "1"),
    ("solve", "--cap", "{}", "4"),
    ("blowup", "--alpha", "{}", "0.5"),
    ("blowup", "--delta", "{}", "0.5"),
    ("impulse", "--alphas", "{},1", "0.5"),
    ("impulse", "--times", "{},2", "1"),
    ("caputo", "--alpha", "{}", "0.5"),
    ("pde", "--alpha", "{}", "0.5"),
    ("pde", "--threshold", "{}", "1e6"),
    ("pde", "--x-min", "{}", "-1"),
    ("pde", "--x-max", "{}", "1"),
    ("pde", "--initial", "constant:{}", "0.5"),
]
EXTREME_FLOATS = ["0", "1e-300", "-1e-300", "5e-324", "1e300", "-1e300", "inf", "-inf", "nan"]


# The step and horizon flags stay at their typical values: a finite but huge
# horizon / step ratio still marches, because there is no step budget yet, so
# they are drawn only from the refusal grid of the test above.
@settings(max_examples=300)
@given(
    case=st.sampled_from(FLOAT_FLAGS),
    value=st.sampled_from(EXTREME_FLOATS + [None]),  # None: the typical value
    form=st.sampled_from(["u", "rho"]),
    bc=st.sampled_from(["periodic", "dirichlet"]),
)
def test_every_float_flag_ends_in_a_documented_exit_code(tmp_path_factory, case, value, form, bc):
    command, flag, template, typical = case
    options = dict(TYPICAL_OPTIONS[command], **{flag: template.format(typical if value is None else value)})
    argv = [command] + [f"{k}={v}" for k, v in options.items() if v is not None]
    out = tmp_path_factory.getbasetemp() / "float-flags"
    if command == "pde":
        argv += [f"--form={form}", f"--bc={bc}"]
    if command == "caputo":
        out.mkdir(exist_ok=True)
        (out / "in.csv").write_text("t,f\n0.0,0.0\n0.1,0.1\n0.2,0.4\n0.3,0.9\n")
        argv.append(f"--input={out / 'in.csv'}")
    if command not in ("bounds", "blowup"):
        argv.append(f"--out={out}")
    err = io.StringIO()
    # warnings raise inside the run only: a "filterwarnings" mark would also
    # cover Hypothesis's own failure report, which then crashes on a warning
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc in (0, 2, 3, 4)
    if rc != 0:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("argv, keys", [
    (["bounds", "--alpha", "0.5"], ["alpha", "delta"]),
    (["blowup", "--alpha", "1"], ["alpha", "step", "horizon", "delta"]),
    (["solve", "--alpha", "0.5", "--h", "0.01", "--t-max", "0.1"],
     ["alpha", "h", "t_max", "cap", "v0", "threshold"]),
    (["impulse", "--t-max", "1"], ["alphas", "times", "h", "t_max"]),
    (["caputo", "--alpha", "0.5", "--input", "in.csv"], ["alpha", "input"]),
    (["pde", "--form", "rho", "--alpha", "0.5", "--cells", "16", "--h", "0.0001", "--t-max", "0.001",
      "--bc", "periodic", "--initial", "market-critical"],
     ["form", "alpha", "cells", "h", "t_max", "bc", "initial", "x_min", "x_max", "threshold"]),
])
def test_manifest_parameters_follow_parser_order(tmp_path, capsys, argv, keys):
    if argv[0] == "caputo":
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
        (tmp_path / "in.csv").write_text("t,f\n0.0,0.0\n0.1,0.1\n0.2,0.4\n")
    if argv[0] in ("bounds", "blowup"):
        rc, report = run_json(capsys, argv)
        manifest = report["manifest"]
    else:
        rc = main(argv + ["--out", str(tmp_path)])
        manifest = json.loads((tmp_path / f"{argv[0]}_manifest.json").read_text())
    assert rc == 0
    assert list(manifest["parameters"]) == keys
    assert list(manifest)[:6] == ["subcommand", "parameters", "version", "grids", "outputs", "duration_seconds"]


def test_import_does_not_load_scipy_integrate():
    # scipy is a test dependency only; importing it costs every run ~0.35 s and ~20 MB
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fracburgers.cli; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_version_flag():
    assert main(["--version"]) == 0


def test_parser_is_built_once(monkeypatch, capsys):
    builds = []
    original = cli.build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            rc, report = run_json(capsys, ["bounds", "--alpha", "0.5"])
            assert rc == 0 and report["alpha"] == 0.5
        assert main(["bounds", "--alpha", "x"]) == 2  # refused by argparse
        assert "invalid float value" in capsys.readouterr().err
        rc, report = run_json(capsys, ["bounds", "--alpha", "0.25", "--delta", "0.5"])
        assert rc == 0 and report["alpha"] == 0.25 and "lower_bound" in report
        # a later call does not see the options of an earlier one
        rc, report = run_json(capsys, ["bounds", "--alpha", "0.5"])
        assert rc == 0 and "lower_bound" not in report
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
