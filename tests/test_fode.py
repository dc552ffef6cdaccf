"""Scalar fractional solver: trivial forcings, comparison with the classical
explicit solution, barrier/monotonicity properties, the capped construction,
the Volterra self-consistency check, and blow-up bracketing."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracburgers import cli, fode, frac_ops
from fracburgers import (
    FractionalOrder,
    NoBlowupDetected,
    Nonlinearity,
    SolverConfig,
    TimeGrid,
    envelope_w,
    envelope_z,
    estimate_blowup,
    lower_bound_constants,
    solve,
    solve_capped,
    upper_bound_b,
    volterra_residual,
)

SQUARE = Nonlinearity.square()


def _pece_direct(alpha, h, n_steps, sweeps, v0=1.0):
    """The PECE scheme for v' = v^2, written out weight by weight in a double loop.

    The product-trapezoid weights are second differences of k^(a+1), which
    cancel about k^2-fold in doubles, so their closed forms are evaluated in
    40 digits.
    """
    c_pred = h ** alpha / math.gamma(alpha + 1.0)
    c_corr = h ** alpha / math.gamma(alpha + 2.0)
    with mp.workdps(40):
        a = mp.mpf(alpha)
        nodes = [mp.mpf(k) for k in range(1, n_steps + 1)]
        # indexed by target m and by lag k; entry 0 unused
        left = [0.0] + [float((m - 1) ** (a + 1) - m ** a * (m - a - 1)) for m in nodes]
        inner = [0.0] + [float((k + 1) ** (a + 1) + (k - 1) ** (a + 1) - 2 * k ** (a + 1)) for k in nodes]
    v, fv = [v0], [v0 * v0]
    for m in range(1, n_steps + 1):
        pred = 0.0
        for j in range(m):  # product rectangle, lag k = m - j
            k = m - j
            pred += (k ** alpha - (k - 1) ** alpha) * fv[j]
        # product trapezoid: left-boundary weight on f(v_0), interior on f(v_1..v_{m-1})
        hist = left[m] * fv[0]
        for j in range(1, m):
            hist += inner[m - j] * fv[j]
        vn = v0 + c_pred * pred
        for _ in range(sweeps):
            vn = v0 + c_corr * (hist + vn * vn)
        v.append(vn)
        fv.append(vn * vn)
    return np.array(v)


def _ladder_direct(order, seed, refinements=3):
    """The blow-up ladder as one solve per (step, threshold) pair: (t_lo, t_hi, trace)."""
    steps = [seed.step / 2.0 ** i for i in range(refinements + 1)]
    thresholds = [seed.escape_threshold * 100.0 ** i for i in range(3)]
    trace = []
    for h in steps:
        for x in thresholds:
            traj = solve(SQUARE, 1.0, order, SolverConfig(h, seed.horizon, x, seed.corrector_sweeps))
            if traj.status != "escaped":
                raise NoBlowupDetected(
                    f"no blow-up detected below horizon {seed.horizon} (step {h:g}, threshold {x:g})", trace
                )
            trace.append((h, x, traj.escape_time))
    e_fine, e_prev, h_fine = trace[-1][2], trace[-4][2], steps[-1]
    t_hi = e_fine + h_fine
    t_lo = min(max(e_fine - (abs(e_prev - e_fine) + h_fine), 0.5 * h_fine), t_hi)
    return t_lo, t_hi, trace


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            SolverConfig(2.0, 1.0)  # step > horizon
        with pytest.raises(ValueError):
            SolverConfig(0.1, 1.0, escape_threshold=-5.0)
        with pytest.raises(ValueError):
            SolverConfig(0.1, 1.0, corrector_sweeps=-1)

    def test_grid_is_the_spanning_grid(self):
        assert SolverConfig(1e-3, 0.3).grid == TimeGrid.spanning(1e-3, 0.3)
        assert SolverConfig(0.5, 0.5).grid.count == 1  # a one-step march

    def test_threshold_must_exceed_initial_value(self):
        with pytest.raises(ValueError):
            solve(SQUARE, 10.0, FractionalOrder(0.5), SolverConfig(0.01, 1.0, escape_threshold=5.0))

    def test_nonlinearity_factories(self):
        assert SQUARE(3.0) == 9.0
        assert Nonlinearity.zero()(7.0) == 0.0
        capped = Nonlinearity.capped_square(4.0)
        assert capped(3.0) == 9.0
        assert capped(5.0) == 16.0
        with pytest.raises(ValueError):
            Nonlinearity.capped_square(0.0)


class TestSolve:
    def test_zero_forcing_is_constant(self):
        for alpha in (0.3, 0.8, 1.0):
            traj = solve(Nonlinearity.zero(), 3.0, FractionalOrder(alpha), SolverConfig(0.01, 1.0))
            assert traj.status == "completed"
            assert np.all(traj.values == 3.0)

    def test_predictor_only_mode(self):
        # corrector_sweeps = 0 marches on the rectangle rule alone; it still
        # tracks the solution, just less accurately than one corrector pass
        order = FractionalOrder(0.5)
        pred = solve(SQUARE, 1.0, order, SolverConfig(1e-3, 0.1, corrector_sweeps=0))
        corr = solve(SQUARE, 1.0, order, SolverConfig(1e-3, 0.1, corrector_sweeps=1))
        fine = solve(SQUARE, 1.0, order, SolverConfig(1e-5, 0.1, corrector_sweeps=1))
        ref = fine.values[-1]
        assert abs(pred.values[-1] - ref) > abs(corr.values[-1] - ref)
        assert abs(pred.values[-1] - ref) < 0.05 * ref

    def test_classical_explicit_solution(self):
        # v(t) = 1/(1 - t) solves the alpha = 1 problem; check v(0.5) = 2
        traj = solve(SQUARE, 1.0, FractionalOrder(1.0), SolverConfig(1e-3, 0.5))
        assert traj.status == "completed"
        assert traj.values[-1] == pytest.approx(2.0, rel=1e-2)

    def test_supersolution_comparison_alpha_half(self):
        # v stays above w(t) = b/(b - t) with b = upper_bound_b(1/2) = 4/pi
        order = FractionalOrder(0.5)
        b = upper_bound_b(order)
        assert b == pytest.approx(4.0 / np.pi, rel=1e-14)
        traj = solve(SQUARE, 1.0, order, SolverConfig(1e-4, 0.999 * b))
        t = traj.times
        w = b / (b - t)
        assert np.all(traj.values >= w * (1.0 - 1e-3))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_lower_barrier_and_monotone(self, alpha):
        traj = solve(SQUARE, 1.0, FractionalOrder(alpha), SolverConfig(2e-4, 1.7))
        assert np.all(traj.values >= 1.0 - 1e-12)
        assert np.all(np.diff(traj.values) >= -1e-12)

    def test_envelope_sandwich_single_order(self):
        # full alpha sweep lives in the acceptance suite
        alpha, delta = 0.7, 0.5
        order = FractionalOrder(alpha)
        c = lower_bound_constants(order, delta)
        traj = solve(SQUARE, 1.0, order, SolverConfig(1e-3, c.T * 0.999))
        t = traj.times[1:]
        v = traj.values[1:]
        w = np.array([envelope_w(order, tt) for tt in t])
        z = np.array([envelope_z(order, delta, tt) for tt in t])
        assert np.all(v >= w * (1.0 - 2e-2))
        assert np.all(v <= z * (1.0 + 2e-2))

    @settings(max_examples=25)
    @given(alpha=st.floats(0.1, 0.99))
    def test_envelope_sandwich_over_random_orders(self, alpha):
        # w <= v <= z on 200 steps over [0, 0.999 T]: to roundoff past the
        # construction delay d, where the subsolution inequality holds; below
        # it the t^alpha initial layer may put v marginally above z
        order = FractionalOrder(alpha)
        c = lower_bound_constants(order, 0.5)
        horizon = 0.999 * c.T
        traj = solve(SQUARE, 1.0, order, SolverConfig(horizon / 200, horizon))
        assert traj.status == "completed" and traj.values.size == 201
        t, v = traj.times, traj.values
        w = np.array([envelope_w(order, tt) for tt in t])
        z = np.array([envelope_z(order, 0.5, tt) for tt in t])
        past = t >= c.d
        assert np.all(w[past] <= v[past] * (1.0 + 1e-12))
        assert np.all(v[past] <= z[past] * (1.0 + 1e-12))
        assert max(np.max((w - v) / w), np.max((v - z) / z)) <= 1e-3

    def test_consistency_near_classical_order(self):
        frac = solve(SQUARE, 1.0, FractionalOrder(1.0 - 1e-3), SolverConfig(1e-3, 0.5))
        classical = solve(SQUARE, 1.0, FractionalOrder(1.0), SolverConfig(1e-3, 0.5))
        assert abs(frac.values[-1] - classical.values[-1]) <= 5e-2

    def test_volterra_residual(self):
        # with enough corrector sweeps the marching sits on the fixed point of
        # the product-trapezoid Volterra discretization (independent path)
        order = FractionalOrder(0.6)
        traj = solve(SQUARE, 1.0, order, SolverConfig(1e-3, 0.15, corrector_sweeps=12))
        assert traj.status == "completed"
        assert volterra_residual(traj, SQUARE, order) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    def test_volterra_residual_across_fft_levels(self, alpha):
        # 5B steps, so blocks of B, 2B and 4B reach later steps through the
        # march's FFTs; the residual sums the same weights in one batch FFT
        # that shares no blocking with them
        n_steps = 5 * frac_ops._BLOCK
        horizon = {0.3: 0.01, 0.6: 0.1}[alpha]  # well before blow-up
        order = FractionalOrder(alpha)
        traj = solve(SQUARE, 1.0, order, SolverConfig(horizon / n_steps, horizon, corrector_sweeps=12))
        assert traj.status == "completed" and traj.values.size == n_steps + 1
        assert volterra_residual(traj, SQUARE, order) <= 1e-13 * np.max(traj.values)

    # 4B steps (B the base block of the blocked memory sum, so blocks of B,
    # 2B and 4B values reach later steps through FFTs) over the span of 200
    # coarse steps, about half the blow-up time (0.023 at alpha = 0.3, 0.46 at 0.7)
    @pytest.mark.parametrize("alpha, coarse_step", [(0.3, 5e-5), (0.7, 1e-3)])
    # v0 = 0.6 makes f(v0) = 0.36 differ from f(v0)^2 and from 1
    @pytest.mark.parametrize(
        "sweeps, v0",
        [pytest.param(sweeps, 1.0, id=f"{sweeps}") for sweeps in (1, 3)]
        + [pytest.param(sweeps, 0.6, id=f"{sweeps}-v0.6") for sweeps in (1, 3)],
    )
    def test_matches_direct_scheme(self, alpha, coarse_step, sweeps, v0):
        # the blocked memory sums over f(v_j) - f(v_0) plus the closed-form
        # weight sums on f(v_0) reproduce the scheme evaluated term by term,
        # left-boundary weight included; only the summation order differs
        n_steps = 4 * frac_ops._BLOCK
        h = 200 * coarse_step / n_steps
        traj = solve(SQUARE, v0, FractionalOrder(alpha), SolverConfig(h, n_steps * h, corrector_sweeps=sweeps))
        assert traj.status == "completed" and traj.values.size == n_steps + 1
        ref = _pece_direct(alpha, h, n_steps, sweeps, v0)
        assert np.max(np.abs(traj.values - ref) / np.abs(ref)) <= 1e-13

    def test_tables_follow_the_march_not_the_horizon(self, monkeypatch):
        # alpha = 0.3 escapes after 228 of the 17000 steps to the horizon
        sizes = []
        original = fode._power_increments

        def recording(p, count):
            sizes.append(count)
            return original(p, count)

        monkeypatch.setattr(fode, "_power_increments", recording)
        traj = solve(SQUARE, 1.0, FractionalOrder(0.3), SolverConfig(1e-4, 1.7))
        assert traj.escape_index == 228
        assert max(sizes) <= 1024

    def test_escape_semantics(self):
        order = FractionalOrder(0.5)
        traj = solve(SQUARE, 1.0, order, SolverConfig(1e-3, 1.0, escape_threshold=10.0))
        assert traj.status == "escaped"
        assert traj.escape_index == traj.samples.grid.count
        assert abs(traj.values[-1]) > 10.0
        assert np.all(np.abs(traj.values[:-1]) <= 10.0)
        assert traj.escape_time == pytest.approx(traj.times[-1])

    @settings(max_examples=20)
    @given(
        alpha=st.floats(0.05, 1.0),
        step=st.floats(2e-4, 2e-3),
        horizon=st.floats(0.05, 1.7),
        low_exp=st.floats(0.1, 8.0),
        gap_exp=st.floats(0.1, 6.0),
        sweeps=st.integers(0, 2),
    )
    def test_escape_index_read_from_larger_threshold(self, alpha, step, horizon, low_exp, gap_exp, sweeps):
        # the threshold only decides where a march stops: a march at x < X
        # stops exactly at the first node of the X trajectory with |v| > x
        x, big = 10.0 ** low_exp, 10.0 ** (low_exp + gap_exp)
        order = FractionalOrder(alpha)
        at_x = solve(SQUARE, 1.0, order, SolverConfig(step, horizon, x, sweeps))
        at_big = solve(SQUARE, 1.0, order, SolverConfig(step, horizon, big, sweeps))
        above = np.flatnonzero(np.abs(at_big.values) > x)
        if above.size == 0:
            assert at_big.status == "completed" and at_x.status == "completed"
            assert np.array_equal(at_x.values, at_big.values)
        else:
            idx = int(above[0])
            assert at_x.status == "escaped" and at_x.escape_index == idx
            assert np.array_equal(at_x.values, at_big.values[: idx + 1])


class TestCapped:
    def test_cap_floor(self):
        with pytest.raises(ValueError):
            solve_capped(3.9, 1.0, FractionalOrder(0.5), SolverConfig(0.01, 1.0))

    def test_agreement_below_cap(self):
        # identical marching while every evaluated value sits at or below the
        # cap, so the two runs agree to roundoff (here: exactly)
        order = FractionalOrder(0.5)
        config = SolverConfig(1e-3, 0.3)
        v4 = solve_capped(4.0, 1.0, order, config)
        v100 = solve_capped(100.0, 1.0, order, config)
        below = v4.values <= 4.0
        assert below.sum() > 50
        assert np.max(np.abs(v4.values[below] - v100.values[below])) <= 1e-12

    def test_monotone_in_cap(self):
        order = FractionalOrder(0.5)
        config = SolverConfig(1e-3, 0.3)
        v4 = solve_capped(4.0, 1.0, order, config)
        v100 = solve_capped(100.0, 1.0, order, config)
        assert np.all(v100.values - v4.values >= -1e-12)

    def test_capped_growth_stays_finite(self):
        traj = solve_capped(4.0, 1.0, FractionalOrder(0.5), SolverConfig(1e-2, 5.0))
        assert traj.status == "completed"
        assert np.isfinite(traj.values).all()


class TestBlowupEstimate:
    def test_classical_bracket_contains_one(self):
        est = estimate_blowup(FractionalOrder(1.0), SolverConfig(8e-4, 1.7), refinements=2)
        assert est.t_lo <= 1.0 <= est.t_hi
        assert est.width <= 0.02

    def test_trace_monotonicity(self):
        est = estimate_blowup(FractionalOrder(0.5), SolverConfig(8e-4, 1.7), refinements=2)
        by_step = {}
        for step, threshold, escape in est.refinement_trace:
            by_step.setdefault(step, []).append((threshold, escape))
        # escape times nondecreasing in threshold at fixed step
        for rows in by_step.values():
            escapes = [e for _, e in sorted(rows)]
            assert all(escapes[i] <= escapes[i + 1] for i in range(len(escapes) - 1))
        # and nonincreasing under step refinement at fixed threshold
        steps = sorted(by_step, reverse=True)
        for k in range(3):
            ladder = [sorted(by_step[s])[k][1] for s in steps]
            assert all(ladder[i] >= ladder[i + 1] for i in range(len(ladder) - 1))

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9, 1.0])
    def test_matches_one_solve_per_rung(self, alpha):
        order = FractionalOrder(alpha)
        seed = SolverConfig(8e-4, 1.7)
        est = estimate_blowup(order, seed)
        assert (est.t_lo, est.t_hi, est.refinement_trace) == _ladder_direct(order, seed)

    def test_threshold_equal_to_a_node_value_is_not_an_escape(self):
        # escape needs |v| > x strictly, also when x is exactly a node value
        order = FractionalOrder(0.5)
        traj = solve(SQUARE, 1.0, order, SolverConfig(8e-4, 1.7))
        seed = SolverConfig(8e-4, 1.7, escape_threshold=float(traj.values[100]))
        est = estimate_blowup(order, seed, refinements=1)
        assert est.refinement_trace[0] == (8e-4, traj.values[100], 101 * 8e-4)
        assert (est.t_lo, est.t_hi, est.refinement_trace) == _ladder_direct(order, seed, refinements=1)

    @pytest.mark.parametrize("refinements", [1, 3])
    def test_one_solve_per_step(self, monkeypatch, refinements):
        calls = []
        original = fode.solve

        def counting(*args, **kwargs):
            calls.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(fode, "solve", counting)
        est = estimate_blowup(FractionalOrder(0.5), SolverConfig(8e-4, 1.7), refinements=refinements)
        assert len(calls) == refinements + 1
        assert {c.escape_threshold for c in calls} == {1e10}
        assert len(est.refinement_trace) == 3 * (refinements + 1)

    @pytest.mark.parametrize("alpha, growth", [(0.5, [1024, 4096]), (0.9, [1024, 4096, 16384])])
    def test_weight_table_built_once_per_growth_step(self, monkeypatch, alpha, growth):
        # the four rungs share one set of tables: each table length is computed
        # once, where a march per rung on tables of its own computes 1024 lags
        # four times over
        asked = []
        original = fode._pt_weights

        def counting(a, m):
            asked.append(m)
            return original(a, m)

        monkeypatch.setattr(fode, "_pt_weights", counting)
        estimate_blowup(FractionalOrder(alpha), SolverConfig(8e-4, 1.7))
        assert asked == growth

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("order_of_rungs", ["coarse first", "fine first"])
    def test_shared_tables_give_the_bits_of_fresh_ones(self, alpha, order_of_rungs):
        # capped marches of 1500 and 6000 steps: the second march in either
        # order grows the tables or reads levels the first one added
        order = FractionalOrder(alpha)
        capped = Nonlinearity.capped_square(4.0)
        configs = [SolverConfig(1e-3, 1.5), SolverConfig(2.5e-4, 1.5)]
        if order_of_rungs == "fine first":
            configs.reverse()
        tables = fode._march_tables(alpha)
        for config in configs:
            shared = solve(capped, 1.0, order, config, _tables=tables)
            fresh = solve(capped, 1.0, order, config)
            assert shared.values.tobytes() == fresh.values.tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
    def test_rung_records(self, alpha):
        order = FractionalOrder(alpha)
        est = estimate_blowup(order, SolverConfig(8e-4, 1.7))
        assert est.thresholds == (1e6, 1e8, 1e10)
        assert [r.step for r in est.rungs] == [8e-4 / 2 ** i for i in range(4)]
        for rung in est.rungs:
            traj = solve(SQUARE, 1.0, order, SolverConfig(rung.step, 1.7, 1e10))
            assert rung.steps == traj.escape_index
            assert rung.escape_indices[-1] == traj.escape_index
            assert rung.wall_s > 0.0
        *coarse, finest = est.rungs
        assert all(r.window == () for r in coarse)
        v = traj.values  # the finest rung
        inside = (v >= 10.0) & (v <= 100.0)
        assert finest.window == tuple(zip(traj.times[inside].tolist(), v[inside].tolist()))
        assert len(finest.window) >= 30
        # the trace is read from the records
        assert est.refinement_trace == [
            (r.step, x, i * r.step) for r in est.rungs for x, i in zip(est.thresholds, r.escape_indices)
        ]

    def test_partial_trace_names_first_missing_rung(self):
        # the horizon of 225 coarse steps lets the two lower thresholds escape
        # but not the top one, so the ladder stops at its third rung
        order = FractionalOrder(0.5)
        seed = SolverConfig(8e-4, 225 * 8e-4)
        with pytest.raises(NoBlowupDetected, match=r"threshold 1e\+10\)") as got:
            estimate_blowup(order, seed, refinements=1)
        with pytest.raises(NoBlowupDetected) as want:
            _ladder_direct(order, seed, refinements=1)
        assert str(got.value) == str(want.value)
        assert len(got.value.trace) == 2
        assert got.value.trace == want.value.trace

    def test_overflow_escape_read_for_every_threshold(self):
        # with thresholds from 1e300, v^2 overflows before any finite value
        # exceeds them on the coarser steps, so all their rungs read the
        # overflow node (the finest step passes 1e300 at a finite 8.5e303)
        order = FractionalOrder(0.5)
        seed = SolverConfig(8e-4, 1.7, escape_threshold=1e300)
        est = estimate_blowup(order, seed)
        by_step = {}
        for step, _, escape in est.refinement_trace:
            by_step.setdefault(step, set()).add(escape)
        assert any(len(escapes) == 1 for escapes in by_step.values())
        assert (est.t_lo, est.t_hi, est.refinement_trace) == _ladder_direct(order, seed)

    def test_ladder_does_not_scale_with_the_horizon(self):
        # alpha = 0.1 blows up at 1.4e-6: the march at seed 1e-9 escapes after
        # about 1e4 steps, however far the horizon lies
        order = FractionalOrder(0.1)
        far = estimate_blowup(order, SolverConfig(1e-9, 1.7))
        near = estimate_blowup(order, SolverConfig(1e-9, 1e-4))
        assert (far.t_lo, far.t_hi, far.refinement_trace) == (near.t_lo, near.t_hi, near.refinement_trace)
        # the bracket itself sits one step quantum high (ROADMAP Known defect 1)
        assert (far.t_lo, far.t_hi) == pytest.approx((1.397375e-6, 1.400375e-6), rel=1e-12)

    def test_no_blowup_below_horizon(self):
        with pytest.raises(NoBlowupDetected):
            estimate_blowup(FractionalOrder(0.9), SolverConfig(1e-3, 0.05), refinements=1)

    def test_ladder_validation(self):
        seed = SolverConfig(1e-3, 1.7)
        with pytest.raises(ValueError):
            estimate_blowup(FractionalOrder(0.5), seed, refinements=0)
        # the lowest threshold must exceed v(0) = 1 even though only the top one is marched
        with pytest.raises(ValueError, match="must exceed"):
            estimate_blowup(FractionalOrder(0.5), SolverConfig(1e-3, 1.7, escape_threshold=0.5))

    @pytest.mark.parametrize("step, horizon, refinements", [(1e-300, 1e7, 10), (8e-4, 1.7, 1100), (8e-4, 1.7, 10 ** 9)])
    def test_invalid_finest_rung_is_refused_before_any_march(self, monkeypatch, step, horizon, refinements):
        # the seed grid is valid; the halvings take horizon / step past the doubles
        # (2.0 ** 1100 itself overflows)
        monkeypatch.setattr(fode, "solve", lambda *args, **kwargs: pytest.fail("a rung was marched"))
        with pytest.raises(ValueError, match="horizon / step must be finite") as err:
            estimate_blowup(FractionalOrder(0.5), SolverConfig(step, horizon), refinements=refinements)
        # the message names the derived rung, not only the step the caller never passed
        assert f"seed step {step!r}" in str(err.value)
        assert f"refinements {refinements}" in str(err.value)

    @pytest.mark.parametrize("growth, levels", [(1e10, 2), (100.0, 400)])
    def test_overflowing_top_threshold_names_the_ladder(self, monkeypatch, growth, levels):
        # 1e300 * 1e10 overflows to inf; 100.0 ** 399 raises OverflowError
        monkeypatch.setattr(fode, "THRESHOLD_GROWTH", growth)
        monkeypatch.setattr(fode, "THRESHOLD_LEVELS", levels)
        seed = SolverConfig(1e-3, 1.7, escape_threshold=1e300)
        with pytest.raises(ValueError) as err:
            estimate_blowup(FractionalOrder(0.5), seed)
        message = str(err.value)
        assert "escape_threshold 1e+300" in message
        assert f"{growth:g} ** {levels - 1} is not finite" in message

    def test_overflowing_seed_threshold_is_refused(self, capsys):
        # the top rung 1e305 * 100 ** 2 of the default ladder overflows to inf
        seed = SolverConfig(1e-3, 1.7, escape_threshold=1e305)
        with pytest.raises(ValueError, match=r"escape_threshold 1e\+305 \* 100 \*\* 2 is not finite"):
            estimate_blowup(FractionalOrder(0.5), seed)
        assert cli.main(["blowup", "--alpha", "0.5", "--threshold", "1e305"]) == 2
        assert "escape_threshold 1e+305" in capsys.readouterr().err
