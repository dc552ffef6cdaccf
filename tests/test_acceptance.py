"""Acceptance suite: one test per criterion, each at its stated tolerance and
runtime limit, printing a single pass line. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion report."""

import json
import math
import time

import numpy as np
import pytest

from fracburgers import (
    FractionalOrder,
    Nonlinearity,
    SampledFunction,
    SolverConfig,
    SpatialGrid,
    TimeGrid,
    BoundaryRule,
    caputo_left,
    envelope_w,
    envelope_z,
    estimate_blowup,
    fractional_impulse_solution,
    gamma,
    ImpulseTrain,
    lower_bound_T,
    lower_bound_constants,
    solve,
    solve_capped,
    solve_u,
    solve_rho,
    step_solution,
    upper_bound_b,
)
from fracburgers.cli import main
from fracburgers.specfun import log_gamma

SQUARE = Nonlinearity.square()
ALPHA_SET = (0.3, 0.5, 0.7, 0.9)


def FO(a):
    return FractionalOrder(a)


def report(n, label):
    print(f"\n[criterion {n:02d}] {label}: PASS")


def test_c01_bound_constants(capsys):
    t0 = time.perf_counter()
    rc = main(["bounds", "--alpha", "0.5"])
    out1 = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert abs(out1["upper_bound"] - 4.0 / math.pi) <= 1e-12

    rc = main(["bounds", "--alpha", "1e-4"])
    out2 = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert abs(out2["upper_bound"] - 1.52620511) <= 1e-4

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"bound constants (4/pi and small-order digits, {elapsed:.2f}s)")


def test_c02_upper_bound_monotonicity():
    t0 = time.perf_counter()
    vals = [upper_bound_b(FO(a)) for a in np.linspace(0.01, 0.99, 99)]
    assert np.all(np.diff(vals) < 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"upper bound strictly decreasing over 99 orders ({elapsed:.2f}s)")


def test_c03_lower_bound_identity_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for a in np.linspace(0.05, 0.95, 20):
        for delta in np.linspace(0.1, 5.0, 20):
            c = lower_bound_constants(FO(a), delta)
            closed = math.exp(
                ((1.0 - a) / a) * math.log(c.c_delta) - log_gamma(2.0 - a) / a
            ) / (1.0 + delta)
            worst = max(worst, abs(c.T - closed) / abs(closed))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, f"lower-bound expressions agree on 20x20 grid (worst rel {worst:.2e}, {elapsed:.2f}s)")


def test_c04_classical_blowup_bracket(capsys):
    t0 = time.perf_counter()
    rc = main(["blowup", "--alpha", "1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["t_lo"] <= 1.0 <= out["t_hi"]
    assert out["t_hi"] - out["t_lo"] <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        report(4, f"classical bracket [{out['t_lo']:.5f}, {out['t_hi']:.5f}] contains 1 ({elapsed:.1f}s)")


def test_c05_analytic_sandwich():
    t0 = time.perf_counter()
    lines = []
    for a in ALPHA_SET:
        order = FO(a)
        est = estimate_blowup(order, SolverConfig(2e-4, 1.7, escape_threshold=1e10))  # finest rung 1e-4
        lo = lower_bound_T(order, 0.5)
        hi = upper_bound_b(order) + 0.01
        assert lo <= est.t_lo and est.t_hi <= hi, (a, est.t_lo, est.t_hi, lo, hi)
        lines.append(f"alpha={a}: [{est.t_lo:.4f}, {est.t_hi:.4f}] in [{lo:.3e}, {hi:.4f}]")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(5, f"numeric brackets inside analytic sandwich ({elapsed:.1f}s) " + "; ".join(lines))


def _sandwich_violations(alpha, step):
    """Max relative one-sided violations of w <= v <= z on the domain
    intersection, plus the same restricted to t >= d (where the subsolution
    inequality is valid; below the delay a genuine t^alpha initial layer puts
    v marginally above z, which no refinement can remove)."""
    order = FO(alpha)
    c = lower_bound_constants(order, 0.5)
    horizon = c.T * 0.999
    if horizon <= step:
        return None
    traj = solve(SQUARE, 1.0, order, SolverConfig(step, horizon))
    t = traj.times[1:]
    v = traj.values[1:]
    w = np.array([envelope_w(order, tt) for tt in t])
    z = np.array([envelope_z(order, 0.5, tt) for tt in t])
    viol_full = max(float(np.max((w - v) / w)), float(np.max((v - z) / z)), 0.0)
    mask = t >= c.d
    if mask.any():
        viol_valid = max(
            float(np.max(((w - v) / w)[mask])), float(np.max(((v - z) / z)[mask])), 0.0
        )
    else:
        viol_valid = 0.0
    return viol_full, viol_valid


def test_c06_envelope_sandwich():
    t0 = time.perf_counter()
    lines = []
    for a in ALPHA_SET:
        res_h = _sandwich_violations(a, 1e-4)
        res_h2 = _sandwich_violations(a, 5e-5)
        if res_h is None:
            lines.append(f"alpha={a}: comparison window below resolution (vacuous)")
            continue
        full_h, valid_h = res_h
        full_h2, valid_h2 = res_h2
        assert full_h <= 2e-2, (a, full_h)
        assert full_h2 <= 2e-2, (a, full_h2)
        # slack shrinking under halving, measured past the construction delay
        assert valid_h2 <= valid_h + 1e-12, (a, valid_h, valid_h2)
        lines.append(
            f"alpha={a}: viol {full_h:.2e} -> {full_h2:.2e} (past delay {valid_h:.1e} -> {valid_h2:.1e})"
        )
    elapsed = time.perf_counter() - t0
    report(6, f"envelope sandwich with 2e-2 slack ({elapsed:.1f}s) " + "; ".join(lines))


def test_c07_operator_exactness():
    t0 = time.perf_counter()
    for a in (0.25, 0.5, 0.75):
        grid = TimeGrid(1e-3, 1000)
        f = SampledFunction(grid, grid.times)
        d = caputo_left(f, FO(a))
        t = grid.times[1:]
        exact = t ** (1.0 - a) / gamma(2.0 - a)
        assert np.max(np.abs(d.values[1:] - exact) / exact) <= 1e-10
        const = SampledFunction(grid, np.full(1001, 7.25))
        assert np.all(caputo_left(const, FO(a)).values == 0.0)
    elapsed = time.perf_counter() - t0
    report(7, f"memory-derivative exactness on affine data ({elapsed:.1f}s)")


def test_c08_capped_construction():
    t0 = time.perf_counter()
    order = FO(0.5)
    config = SolverConfig(1e-3, 0.3)
    v4 = solve_capped(4.0, 1.0, order, config)
    v100 = solve_capped(100.0, 1.0, order, config)
    below = v4.values <= 4.0
    assert below.sum() > 0
    agree = np.max(np.abs(v4.values[below] - v100.values[below]))
    assert agree <= 1e-12
    assert np.all(v100.values - v4.values >= -1e-12)
    elapsed = time.perf_counter() - t0
    report(8, f"capped runs agree below the cap (max dev {agree:.1e}) and are ordered ({elapsed:.1f}s)")


def test_c09_impulse_dataset(tmp_path):
    t0 = time.perf_counter()
    rc = main(["impulse", "--out", str(tmp_path)])
    assert rc == 0
    import csv

    with open(tmp_path / "impulse.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    times = data[:, 0]
    train = ImpulseTrain(np.array([1.0, 2.0, 3.0, 4.0]))

    # (a) the alpha=1 column is the step count
    col1 = data[:, header.index("alpha=1")]
    expected = np.array([step_solution(train, t) for t in times])
    assert np.array_equal(col1, expected)

    # (b) fractional columns diverge right of each impulse
    for a in (0.1, 0.25, 0.5):
        order = FO(a)
        for p in train.times:
            assert fractional_impulse_solution(train, order, p + 1e-6) > 1e2

    # (c) the alpha=0.99 column sits near the step count at t=4.5
    i45 = int(np.argmin(np.abs(times - 4.5)))
    assert abs(times[i45] - 4.5) < 1e-9
    assert abs(data[i45, header.index("alpha=0.99")] - 4.0) <= 0.15

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(9, f"impulse dataset: step column, divergence, near-classical column ({elapsed:.1f}s)")


def _separable_error(alpha, h, cells, t_end):
    order = FO(alpha)
    spatial = SpatialGrid(-1.0, 1.0, cells)
    tgrid = TimeGrid(h, max(1, int(round(t_end / h))))
    if alpha == 1.0:
        vref = lambda t: 1.0 / (1.0 - t)
    else:
        fine = solve(SQUARE, 1.0, order, SolverConfig(t_end / 4096, t_end * 1.0000001))
        vref = fine.value_at
    bc = BoundaryRule.dirichlet(lambda x, t: -x * vref(t))
    field = solve_u(-spatial.nodes(False), order, spatial, tgrid, bc)
    assert field.status == "completed"
    exact = -field.x * vref(field.time.horizon)
    return float(np.max(np.abs(field.slices[-1] - exact)))


def test_c10_pde_separable_consistency():
    # CFL-compliant resolutions: the per-step restriction tightens by a factor
    # 2^(1-alpha) under simultaneous (dt, dx) halving, so the base pair is
    # chosen inside that headroom (the module example's (1e-3, 200 cells)
    # pairing violates the CFL precondition at alpha=1/2).
    t0 = time.perf_counter()
    lines = []
    for alpha, h, cells in ((0.5, 1e-5, 100), (1.0, 1e-3, 200)):
        t_end = (1.0 / 1.5 if alpha == 1.0 else lower_bound_T(FO(alpha), 0.5)) / 2.0
        e1 = _separable_error(alpha, h, cells, t_end)
        e2 = _separable_error(alpha, h / 2.0, cells * 2, t_end)
        assert e1 <= 5e-2, (alpha, e1)
        assert e2 <= 0.6 * e1, (alpha, e1, e2)
        lines.append(f"alpha={alpha}: err {e1:.2e} -> {e2:.2e} ({(1 - e2 / e1) * 100:.0f}% drop)")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(10, f"product-form reproduction ({elapsed:.1f}s) " + "; ".join(lines))


def test_c11_conservation_and_transform():
    t0 = time.perf_counter()
    sp = SpatialGrid(-1.0, 1.0, 64)
    x = sp.nodes(True)
    tg = TimeGrid(3e-4, 200)
    rho0 = 0.5 + 0.25 * np.sin(np.pi * x)

    u_run = solve_u(2 * rho0 - 1, FO(0.5), sp, tg, BoundaryRule.periodic())
    masses = u_run.slices.sum(axis=1) * sp.dx
    base = max(abs(masses[0]), 1.0)
    drift = np.max(np.abs(masses - masses[0])) / base
    assert drift <= 1e-10

    rho_run = solve_rho(rho0, FO(0.5), sp, tg, BoundaryRule.periodic())
    gap = np.max(np.abs((2 * rho_run.slices - 1) - u_run.slices))
    assert gap <= 1e-9

    elapsed = time.perf_counter() - t0
    report(11, f"mass drift {drift:.1e}, transform gap {gap:.1e} ({elapsed:.1f}s)")


def test_c12_scaling_laws():
    t0 = time.perf_counter()
    # doubling the rescaling parameter doubles the initial slope of the
    # product form; at alpha=1 the escape time must halve
    e1 = solve(SQUARE, 1.0, FO(1.0), SolverConfig(2e-4, 1.7)).escape_time
    e2 = solve(SQUARE, 2.0, FO(1.0), SolverConfig(2e-4, 1.7)).escape_time
    ratio = e2 / e1
    assert abs(ratio - 0.5) <= 0.02

    # memory-derivative rescaling identity at two resolutions
    for alpha in (0.5, 0.75):
        order = FO(alpha)
        fn = lambda t: np.sin(t) + t ** 2
        residuals = []
        for n in (400, 800):
            h = 1.0 / n
            fs = SampledFunction(TimeGrid(h, n), fn(2 * TimeGrid(h, n).times))
            f = SampledFunction(TimeGrid(h, 2 * n), fn(TimeGrid(h, 2 * n).times))
            ds = caputo_left(fs, order).values[1:]
            d = caputo_left(f, order).values
            rhs = 2.0 ** alpha * d[2 * np.arange(1, n + 1)]
            residuals.append(np.max(np.abs(ds - rhs)) / np.max(np.abs(rhs)))
        assert residuals[1] < residuals[0]
        assert residuals[1] < 1e-4

    elapsed = time.perf_counter() - t0
    report(12, f"escape ratio {ratio:.4f} and rescaling identity converge ({elapsed:.1f}s)")
