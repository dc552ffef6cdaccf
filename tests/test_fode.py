"""Scalar fractional solver: trivial forcings, comparison with the classical
explicit solution, barrier/monotonicity properties, the capped construction,
the Volterra self-consistency check, and blow-up bracketing."""

import math
import struct

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracburgers import fode, frac_ops
from fracburgers import (
    FractionalOrder,
    NoBlowupDetected,
    Nonlinearity,
    SolverConfig,
    TimeGrid,
    UnderResolvedLadder,
    comparison_lower_bound,
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
B = frac_ops._BLOCK  # the base block of the memory sum's block walk


def _direct_scheme(alpha, h, n_steps, v0=1.0, cap=math.inf, sweeps=None, threshold=1e10, coef=1.0):
    """The product-trapezoid scheme for v' = min(coef v^2, cap^2), weight by weight in a double loop.

    Returns the values kept and the escape index (None if the march
    completes). Each step solves its corrector equation v = A + c f(v),
    c = h^alpha / Gamma(alpha+2): by default exactly, as the smaller root of
    c coef v^2 - v + A in 40 digits while that root is at most the cap, else
    A + c cap^2; a step with no real root ends the march and keeps no value.
    With `sweeps`, the PECE of Diethelm, Ford & Freed instead: a
    product-rectangle predictor, then that many fixed-point sweeps of the
    corrector, ending the march at the first value past `threshold`, which
    is kept. The product-trapezoid weights are second differences of
    k^(a+1), which cancel about k^2-fold in doubles, so their closed forms
    are evaluated in 40 digits.
    """
    c_pred = h ** alpha / math.gamma(alpha + 1.0)
    c_corr = h ** alpha / math.gamma(alpha + 2.0)
    cap2 = cap * cap

    def f(r):
        return min(coef * r * r, cap2)

    with mp.workdps(40):
        a = mp.mpf(alpha)
        nodes = [mp.mpf(k) for k in range(1, n_steps + 1)]
        # indexed by target m and by lag k; entry 0 unused
        left = [0.0] + [float((m - 1) ** (a + 1) - m ** a * (m - a - 1)) for m in nodes]
        inner = [0.0] + [float((k + 1) ** (a + 1) + (k - 1) ** (a + 1) - 2 * k ** (a + 1)) for k in nodes]
    v, fv = [v0], [f(v0)]
    for m in range(1, n_steps + 1):
        # product trapezoid: left-boundary weight on f(v_0), interior on f(v_1..v_{m-1})
        hist = left[m] * fv[0]
        for j in range(1, m):
            hist += inner[m - j] * fv[j]
        A = v0 + c_corr * hist
        if sweeps is None:
            with mp.workdps(40):
                ca = mp.mpf(c_corr) * coef
                disc = 1 - 4 * ca * mp.mpf(A)
                vn = float((1 - mp.sqrt(disc)) / (2 * ca)) if disc >= 0 else math.inf
            if not vn * vn <= cap2:
                vn = A + c_corr * cap2
            if not math.isfinite(vn):
                return np.array(v), m
        else:
            pred = 0.0
            for j in range(m):  # product rectangle, lag k = m - j
                k = m - j
                pred += (k ** alpha - (k - 1) ** alpha) * fv[j]
            vn = v0 + c_pred * pred
            for _ in range(sweeps):
                vn = v0 + c_corr * (hist + f(vn))
            if not abs(vn) <= threshold:
                if math.isfinite(vn):
                    v.append(vn)
                return np.array(v), m
        v.append(vn)
        fv.append(f(vn))
    return np.array(v), None


def _mittag_leffler(alpha, z=-1.0):
    """E_alpha(z) = sum_k z^k / Gamma(alpha k + 1) for |z| <= 1, 600 terms summed exactly by fsum.

    Terms with alpha k + 1 >= 171 are left out: Gamma overflows there, and
    the terms are below 1e-306.
    """
    return math.fsum(z ** k / math.gamma(alpha * k + 1.0) for k in range(600) if alpha * k + 1.0 < 171.0)


def _seed_step(order, step, refinements=1):
    """The ladder's seed: `step`, or 2^refinements T_cmp / 100 if smaller."""
    return min(step, 2.0 ** refinements * (comparison_lower_bound(order) / 100.0))


def _ladder_direct(order, seed, refinements=1):
    """A blow-up ladder of `refinements` halvings as one solve per rung: (t_lo, t_hi, trace).

    estimate_blowup's ladder is the one of a single halving.
    """
    x = seed.escape_threshold
    top = _seed_step(order, seed.step, refinements)
    trace = []
    for i in range(refinements + 1):
        h = top / 2.0 ** i
        traj = solve(SQUARE, 1.0, order, SolverConfig(h, seed.horizon, x))
        if traj.status != "escaped":
            raise NoBlowupDetected(
                f"no blow-up detected below horizon {seed.horizon} (step {h:g}, threshold {x:g})", trace
            )
        trace.append((h, x, traj.escape_time))
    (_, _, e_prev), (h_fine, _, e_fine) = trace[-2:]
    assert -4.0 <= (e_prev - e_fine) / h_fine <= 3.0
    return e_fine - h_fine, e_fine + 2.0 * h_fine, trace


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            SolverConfig(2.0, 1.0)  # step > horizon
        with pytest.raises(ValueError):
            SolverConfig(0.1, 1.0, escape_threshold=-5.0)
        with pytest.raises(TypeError):
            SolverConfig(0.1, 1.0, 1e10, 1)  # no corrector sweeps to set

    def test_grid_is_the_spanning_grid(self):
        assert SolverConfig(1e-3, 0.3).grid == TimeGrid.spanning(1e-3, 0.3)
        assert SolverConfig(0.5, 0.5).grid.count == 1  # a one-step march

    def test_threshold_must_exceed_initial_value(self):
        with pytest.raises(ValueError):
            solve(SQUARE, 10.0, FractionalOrder(0.5), SolverConfig(0.01, 1.0, escape_threshold=5.0))

    def test_nonlinearity_factories(self):
        assert SQUARE(3.0) == 9.0
        capped = Nonlinearity.capped_square(4.0)
        assert capped(3.0) == 9.0
        assert capped(5.0) == 16.0
        with pytest.raises(ValueError):
            Nonlinearity.capped_square(0.0)
        with pytest.raises(ValueError):
            Nonlinearity(b=math.nan)
        with pytest.raises(ValueError):
            Nonlinearity(a=-1.0, cap=4.0)
        decay = Nonlinearity(a=0.0, b=-1.0)
        assert decay(3.0) == -3.0
        assert Nonlinearity(a=2.0, b=-1.0)(3.0) == 15.0

    @settings(max_examples=200)
    @given(
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 0.0),
        cap=st.sampled_from([math.inf, 4.0, 30.0]),
        A=st.floats(-50.0, 50.0),
        c=st.floats(1e-8, 0.5),
    )
    def test_corrector_root_solves_its_equation(self, a, b, cap, A, c):
        # the root, where there is one, solves v = A + c f(v) to roundoff and
        # is the branch through A: it tends to A as c -> 0
        assume(cap == math.inf or a >= 0.0)  # a cap needs a >= 0
        f = Nonlinearity(a, b, cap)
        v = f.corrector(c)(A)
        if v is None:  # no real root: the quadratic's discriminant is negative
            assert cap == math.inf
            x = A / (1.0 - c * b)
            assert 1.0 - 4.0 * c * a / (1.0 - c * b) * x < 1e-12
            return
        scale = abs(A) + c * (abs(a) * v * v + abs(b * v) + (cap * cap if cap < math.inf else 0.0)) + 1.0
        assert abs(v - (A + c * f(v))) <= 1e-12 * scale
        small = f.corrector(c * 1e-9)(A)
        assert small is not None and abs(small - A) <= 1e-6 * (abs(A) + 1.0)

    def test_square_root_is_the_cancellation_free_form(self):
        # f = v^2: v = 2A / (1 + sqrt(1 - 4cA)); no real root past 4cA = 1
        root = SQUARE.corrector(0.01)
        assert root(20.0) == 40.0 / (1.0 + math.sqrt(0.2))
        assert root(25.0) == 50.0 and root(25.000001) is None
        capped = Nonlinearity.capped_square(4.0).corrector(0.01)
        assert capped(3.0) == 6.0 / (1.0 + math.sqrt(0.88))  # 3.1 below the cap
        assert capped(25.0) == 25.0 + 0.01 * 16.0  # no uncapped root: past the cap

    @given(cap=st.floats(min_value=0.0, exclude_min=True), data=st.data())
    def test_capped_square_has_the_bits_of_min(self, cap, data):
        # on every float, NaN and the infinities included, as min(r^2, cap^2) gives it
        special = [0.0, -0.0, 5e-324, -5e-324, cap, -cap, math.inf, -math.inf, math.nan]
        r = data.draw(st.sampled_from(special) | st.floats())
        got = Nonlinearity.capped_square(cap)(r)
        assert struct.pack("<d", got) == struct.pack("<d", min(r * r, cap * cap))


class TestSolve:
    def test_zero_forcing_is_constant(self):
        for alpha in (0.3, 0.8, 1.0):
            traj = solve(Nonlinearity(a=0.0), 3.0, FractionalOrder(alpha), SolverConfig(0.01, 1.0))
            assert traj.status == "completed"
            assert np.all(traj.values == 3.0)

    def test_classical_explicit_solution(self):
        # v(t) = 1/(1 - t) solves the alpha = 1 problem; check v(0.5) = 2
        traj = solve(SQUARE, 1.0, FractionalOrder(1.0), SolverConfig(1e-3, 0.5))
        assert traj.status == "completed"
        assert traj.values[-1] == pytest.approx(2.0, rel=1e-2)

    def test_classical_step_is_the_implicit_trapezoid_rule(self):
        # each step solves v_{n+1} = v_n + (h/2) (f(v_n) + f(v_{n+1})) to roundoff,
        # and the march stops at the first step with no root, keeping no value
        h = 1e-2
        traj = solve(SQUARE, 1.0, FractionalOrder(1.0), SolverConfig(h, 1.7))
        v = traj.values
        assert np.max(np.abs(v[1:] - v[:-1] - 0.5 * h * (v[:-1] ** 2 + v[1:] ** 2)) / v[1:]) <= 1e-14
        assert traj.status == "escaped" and traj.escape_index == len(v)
        assert 1.0 - 2.0 * h * (v[-1] + 0.5 * h * v[-1] ** 2) < 0.0  # 1 - 4cA < 0 at c = h/2
        # the root is lost at exactly T - h
        assert traj.escape_time == pytest.approx(1.0 - h, abs=1e-12)

    @pytest.mark.parametrize("alpha, h", [(0.1, 1e-4), (0.5, 1.0), (1.0, 1.0)])
    def test_first_step_without_a_root_is_refused(self, alpha, h):
        # a step about as long as the blow-up time or longer leaves the first
        # corrector equation without a real root, so the march keeps no step
        with pytest.raises(ValueError, match="first marching step has no finite value"):
            solve(SQUARE, 1.0, FractionalOrder(alpha), SolverConfig(h, 1.0))

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
        # the march solves the product-trapezoid Volterra discretization, which
        # the residual evaluates on an independent path, to roundoff
        order = FractionalOrder(0.6)
        traj = solve(SQUARE, 1.0, order, SolverConfig(1e-3, 0.15))
        assert traj.status == "completed"
        assert volterra_residual(traj, SQUARE, order) <= 1e-13 * np.max(traj.values)

    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    def test_volterra_residual_across_fft_levels(self, alpha):
        # 5B steps, so blocks of B, 2B and 4B reach later steps through the
        # march's FFTs; the residual sums the same weights in one batch FFT
        # that shares no blocking with them
        n_steps = 5 * frac_ops._BLOCK
        horizon = {0.3: 0.01, 0.6: 0.1}[alpha]  # well before blow-up
        order = FractionalOrder(alpha)
        traj = solve(SQUARE, 1.0, order, SolverConfig(horizon / n_steps, horizon))
        assert traj.status == "completed" and traj.values.size == n_steps + 1
        assert volterra_residual(traj, SQUARE, order) <= 1e-13 * np.max(traj.values)

    # 4B steps (B the base block of the blocked memory sum, so blocks of B,
    # 2B and 4B values reach later steps through FFTs) over the span of 200
    # coarse steps, about half the blow-up time (0.023 at alpha = 0.3, 0.46 at 0.7)
    @pytest.mark.parametrize("alpha, coarse_step", [(0.3, 5e-5), (0.7, 1e-3)])
    # v0 = 0.6 makes f(v0) = 0.36 differ from f(v0)^2 and from 1; f = a v^2
    # at a = 3 puts the root's coefficient a to work: it is f = u^2 for
    # u = a v, so it blows up a^(1/alpha) times sooner, and so does the span
    @pytest.mark.parametrize(
        "a, v0",
        [pytest.param(float(a), 1.0, id=f"{a}") for a in (1, 3)]
        + [pytest.param(float(a), 0.6, id=f"{a}-v0.6") for a in (1, 3)],
    )
    def test_matches_direct_scheme(self, alpha, coarse_step, a, v0):
        # the blocked memory sums over f(v_j) - f(v_0) plus the closed-form
        # weight sums on f(v_0) reproduce the scheme evaluated term by term,
        # left-boundary weight included; only the summation order and the
        # form of the root differ
        n_steps = 4 * frac_ops._BLOCK
        h = 200 * coarse_step / n_steps / a ** (1.0 / alpha)
        traj = solve(Nonlinearity(a=a), v0, FractionalOrder(alpha), SolverConfig(h, n_steps * h))
        assert traj.status == "completed" and traj.values.size == n_steps + 1
        ref, escape = _direct_scheme(alpha, h, n_steps, v0, coef=a)
        assert escape is None
        assert np.max(np.abs(traj.values - ref) / np.abs(ref)) <= 1e-13

    # the exact march against the PECE's direct form at 40 sweeps, which
    # converge to the same root where 2cv, the sweep's contraction, is small;
    # near root loss they stop converging, so there the escapes are compared
    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(0.2, 0.95),
        per_bound=st.integers(30, 80),
        cap=st.sampled_from([math.inf, 4.0, 12.0]),
    )
    def test_agrees_with_the_forty_sweep_pece_where_sweeps_converge(self, alpha, per_bound, cap):
        # steps of T_cmp / per_bound up to 4.5 T_cmp, past the blow-up time (T < 4 T_cmp)
        order = FractionalOrder(alpha)
        h = comparison_lower_bound(order) / per_bound
        n_steps = round(4.5 * per_bound)
        f = Nonlinearity.capped_square(cap) if cap < math.inf else SQUARE
        traj = solve(f, 1.0, order, SolverConfig(h, n_steps * h))
        pece, pece_escape = _direct_scheme(alpha, h, n_steps, cap=cap, sweeps=40)
        c = h ** alpha / math.gamma(alpha + 2.0)
        n = min(len(traj.values), len(pece))
        settled = traj.values[:n] < 0.25 / c
        assert settled.sum() >= 10
        assert np.max(np.abs(traj.values[:n][settled] / pece[:n][settled] - 1.0)) <= 1e-12
        if cap < math.inf:
            assert traj.status == "completed" and pece_escape is None
        else:
            assert abs(traj.escape_index - pece_escape) <= 1

    # marches that end just before, on and just past the first two base
    # blocks of the memory sum's block walk, over about 40% of the blow-up time
    @pytest.mark.parametrize("n_steps", [B - 2, B - 1, B, B + 1, 2 * B, 2 * B + 1])
    @pytest.mark.parametrize("alpha, horizon", [(0.3, 0.02), (0.7, 0.4)])
    def test_matches_direct_scheme_at_block_edges(self, n_steps, alpha, horizon):
        h = horizon / n_steps
        traj = solve(SQUARE, 1.0, FractionalOrder(alpha), SolverConfig(h, horizon))
        assert traj.status == "completed" and traj.values.size == n_steps + 1
        ref, _ = _direct_scheme(alpha, h, n_steps)
        assert np.max(np.abs(traj.values - ref) / np.abs(ref)) <= 1e-13

    @staticmethod
    def _escape_is_a_prefix_of_the_direct_scheme(escape, n_steps):
        """A march at alpha 0.7 with its threshold set to escape at target `escape`."""
        alpha = 0.7
        h = 0.4 / n_steps
        ref, _ = _direct_scheme(alpha, h, n_steps)
        x = 0.5 * (ref[escape - 1] + ref[escape])  # v rises: ref first exceeds x at `escape`
        assert int(np.flatnonzero(ref > x)[0]) == escape
        order = FractionalOrder(alpha)
        traj = solve(SQUARE, 1.0, order, SolverConfig(h, n_steps * h, x))
        assert traj.status == "escaped" and traj.escape_index == escape
        assert np.max(np.abs(traj.values - ref[: escape + 1]) / ref[: escape + 1]) <= 1e-13
        full = solve(SQUARE, 1.0, order, SolverConfig(h, n_steps * h))
        assert traj.values.tobytes() == full.values[: escape + 1].tobytes()

    # an escape on a block's last target, whose history entry would set off
    # the flush of the block, and one on the next block's first target
    @pytest.mark.parametrize("escape", [B - 1, B, 2 * B - 1, 2 * B])
    def test_escape_at_block_edges(self, escape):
        self._escape_is_a_prefix_of_the_direct_scheme(escape, 2 * B + 1)

    # one product serves the targets 4q..4q + 3 of a base block, and target
    # 4q + i adds its lags 1..i on the entries of its group written before
    # it: escapes on each target of a group, in the b0 = 0 block (whose
    # target 0 is v0) and in later ones
    @pytest.mark.parametrize(
        "escape", [1, 2, 3, 4, B + 36, B + 37, B + 38, B + 39, 2 * B + 4, 2 * B + 5, 2 * B + 6, 2 * B + 7]
    )
    def test_escape_on_either_target_of_a_pair(self, escape):
        self._escape_is_a_prefix_of_the_direct_scheme(escape, 2 * B + 8)

    # completed marches whose last base block ends inside a group of four,
    # its length 1, 2 or 3 (mod 4), down to the b0 = 0 block of 2 targets
    @pytest.mark.parametrize("n_steps", [1, 2, 4, 5, B + 2, B + 5, 2 * B + 4])
    def test_last_block_of_odd_length(self, n_steps):
        alpha, h = 0.7, 0.4 / (2 * B + 8)
        order = FractionalOrder(alpha)
        traj = solve(SQUARE, 1.0, order, SolverConfig(h, n_steps * h))
        assert traj.status == "completed" and traj.values.size == n_steps + 1
        assert (n_steps + 1) % B % 4 != 0  # the march reads targets 0..n_steps
        ref, _ = _direct_scheme(alpha, h, n_steps)
        assert np.max(np.abs(traj.values - ref) / ref) <= 1e-13
        full = solve(SQUARE, 1.0, order, SolverConfig(h, (2 * B + 8) * h))
        assert traj.values.tobytes() == full.values[: n_steps + 1].tobytes()

    def test_tables_follow_the_march_not_the_horizon(self, monkeypatch):
        # alpha = 0.3 escapes after 220 of the 17000 steps to the horizon
        # and reaches block level 0 only: lags up to 2B - 1 = 255
        sizes = []
        original = frac_ops._pt_weights

        def recording(alpha, count):
            sizes.append(count)
            return original(alpha, count)

        monkeypatch.setattr(frac_ops, "_pt_weights", recording)
        traj = solve(SQUARE, 1.0, FractionalOrder(0.3), SolverConfig(1e-4, 1.7))
        assert traj.escape_index == 220
        assert max(sizes) <= 255

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
    )
    def test_escape_index_read_from_larger_threshold(self, alpha, step, horizon, low_exp, gap_exp):
        # the threshold only decides where a march stops: a march at x < X
        # stops exactly at the first node of the X trajectory with |v| > x,
        # and both end alike where none passes x (completed, or at root loss)
        x, big = 10.0 ** low_exp, 10.0 ** (low_exp + gap_exp)
        order = FractionalOrder(alpha)
        step = _seed_step(order, step)  # the first step has a root
        at_x = solve(SQUARE, 1.0, order, SolverConfig(step, horizon, x))
        at_big = solve(SQUARE, 1.0, order, SolverConfig(step, horizon, big))
        above = np.flatnonzero(np.abs(at_big.values) > x)
        if above.size == 0:
            assert at_x.escape_index == at_big.escape_index
            assert np.array_equal(at_x.values, at_big.values)
        else:
            idx = int(above[0])
            assert at_x.status == "escaped" and at_x.escape_index == idx
            assert np.array_equal(at_x.values, at_big.values[: idx + 1])


class TestMittagLeffler:
    """^C D^alpha v = -v, v(0) = 1, solved by v(t) = E_alpha(-t^alpha): a continuous oracle."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.99])
    def test_series_matches_mpmath(self, alpha):
        with mp.workdps(40):
            a = mp.mpf(alpha)
            exact = mp.fsum((-1) ** k / mp.gamma(a * k + 1) for k in range(2000))
        assert _mittag_leffler(alpha) == pytest.approx(float(exact), abs=2e-15)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0.1, 0.99))
    def test_order_at_t_one(self, alpha):
        # solving its corrector exactly, the march has the order 1 + alpha of
        # product integration at a fixed t > 0 (Diethelm, Ford & Freed 2004); at its
        # first nodes the error falls only like h^(2 alpha)
        decay, order = Nonlinearity(a=0.0, b=-1.0), FractionalOrder(alpha)
        exact = _mittag_leffler(alpha)
        errors = [abs(solve(decay, 1.0, order, SolverConfig(1.0 / n, 1.0)).values[-1] - exact) for n in (512, 2048)]
        assert math.log(errors[0] / errors[1], 4) == pytest.approx(1.0 + alpha, abs=0.05)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.5, 0.7])
    def test_first_node_rate(self, alpha):
        # the worst relative error over nodes 1-3 falls like h^(2 alpha), the
        # README's rate at the first nodes (measured 0.174, 0.381, 0.593, 1.003, 1.403)
        decay, order = Nonlinearity(a=0.0, b=-1.0), FractionalOrder(alpha)
        errors = []
        for n in (1600, 6400):
            traj = solve(decay, 1.0, order, SolverConfig(1.0 / n, 3.0 / n))
            exact = np.array([_mittag_leffler(alpha, -t ** alpha) for t in traj.times[1:]])
            errors.append(np.max(np.abs(traj.values[1:] - exact) / exact))
        assert math.log(errors[0] / errors[1], 4) == pytest.approx(2.0 * alpha, abs=0.05)


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
        est = estimate_blowup(FractionalOrder(1.0), SolverConfig(4e-4, 1.7))
        assert est.t_lo <= 1.0 <= est.t_hi
        assert est.width <= 0.02

    def test_trace_monotonicity(self):
        est = estimate_blowup(FractionalOrder(0.5), SolverConfig(4e-4, 1.7))
        # escape times nonincreasing under step refinement
        escapes = [e for _, _, e in est.refinement_trace]
        assert all(escapes[i] >= escapes[i + 1] for i in range(len(escapes) - 1))

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9, 1.0])
    def test_matches_one_solve_per_rung(self, alpha):
        # seed thresholds 1e10, a node value of the coarsest march and 1e300
        order = FractionalOrder(alpha)
        coarsest = solve(SQUARE, 1.0, order, SolverConfig(_seed_step(order, 2e-4), 1.7, 1e10))
        for x in (1e10, float(coarsest.values[len(coarsest.values) // 2]), 1e300):
            seed = SolverConfig(2e-4, 1.7, escape_threshold=x)
            est = estimate_blowup(order, seed)
            assert (est.t_lo, est.t_hi, est.refinement_trace) == _ladder_direct(order, seed), x

    def test_threshold_equal_to_a_node_value_is_not_an_escape(self):
        # escape needs |v| > x strictly, also when x is exactly a node value
        order = FractionalOrder(0.5)
        traj = solve(SQUARE, 1.0, order, SolverConfig(8e-4, 1.7))
        seed = SolverConfig(8e-4, 1.7, escape_threshold=float(traj.values[100]))
        est = estimate_blowup(order, seed)
        assert est.refinement_trace[0] == (8e-4, traj.values[100], 101 * 8e-4)
        assert (est.t_lo, est.t_hi, est.refinement_trace) == _ladder_direct(order, seed)

    def test_overflow_escape_read_for_every_threshold(self):
        # at threshold 1e300 every rung escapes at a step with no finite value,
        # here the first step with no corrector root, one past its last node
        order = FractionalOrder(0.5)
        seed = SolverConfig(2e-4, 1.7, escape_threshold=1e300)
        est = estimate_blowup(order, seed)
        lost = solve(SQUARE, 1.0, order, seed)
        assert est.rungs[0].steps == lost.escape_index == len(lost.values)
        assert np.max(lost.values) < 1e3
        assert (est.t_lo, est.t_hi, est.refinement_trace) == _ladder_direct(order, seed)

    def test_one_solve_per_step(self, monkeypatch):
        calls = []
        original = fode.solve

        def counting(*args, **kwargs):
            calls.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(fode, "solve", counting)
        est = estimate_blowup(FractionalOrder(0.5), SolverConfig(2e-4, 1.7))
        assert len(calls) == len(est.refinement_trace) == 2
        assert {c.escape_threshold for c in calls} == {1e10}

    @pytest.mark.parametrize(
        "alpha, growth",
        [(0.5, [127, 255, 511, 1023, 2047]), (0.9, [127, 255, 511, 1023, 2047, 4095, 8191])],
    )
    def test_weight_table_built_once_per_growth_step(self, monkeypatch, alpha, growth):
        # the two rungs share one set of tables: the near lags B - 1 once, and
        # the lags 2L - 1 of each block level L once, by the first rung that
        # reaches it, where a march per rung on tables of its own computes the
        # near lags and the low levels twice
        asked = []
        original = frac_ops._pt_weights

        def counting(a, m):
            asked.append(m)
            return original(a, m)

        monkeypatch.setattr(frac_ops, "_pt_weights", counting)
        estimate_blowup(FractionalOrder(alpha), SolverConfig(2e-4, 1.7))
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
        tables = frac_ops.LagTables.product_trapezoid(alpha)
        for config in configs:
            shared = solve(capped, 1.0, order, config, _tables=tables)
            fresh = solve(capped, 1.0, order, config)
            assert shared.values.tobytes() == fresh.values.tobytes()

    @pytest.mark.parametrize("alpha", [0.4, 0.6])
    def test_rung_escaping_mid_block_leaves_shared_tables_intact(self, alpha):
        # the coarser rung of the default ladder escapes inside a base block
        # and abandons its block walk there; the finest rung, on the same
        # tables, gives the bits of a march on tables of its own
        order = FractionalOrder(alpha)
        est = estimate_blowup(order, SolverConfig(2e-4, 1.7))
        assert est.rungs[0].steps % B not in (0, B - 1)
        tables = frac_ops.LagTables.product_trapezoid(alpha)
        for rung in est.rungs:
            config = SolverConfig(rung.step, 1.7, est.threshold)
            shared = solve(SQUARE, 1.0, order, config, _tables=tables)
            fresh = solve(SQUARE, 1.0, order, config)
            assert shared.escape_index == rung.steps
            assert shared.values.tobytes() == fresh.values.tobytes()

    def test_classical_ladder_builds_no_tables(self, monkeypatch):
        # alpha = 1 marches the one-step method, which reads no weight tables
        def refuse(alpha):
            raise AssertionError("weight tables built at alpha = 1")

        monkeypatch.setattr(frac_ops.LagTables, "product_trapezoid", refuse)
        est = estimate_blowup(FractionalOrder(1.0), SolverConfig(2e-4, 1.7))
        assert est.t_lo <= 1.0 <= est.t_hi

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
    def test_rung_records(self, alpha):
        order = FractionalOrder(alpha)
        est = estimate_blowup(order, SolverConfig(2e-4, 1.7))
        assert est.threshold == 1e10
        assert [r.step for r in est.rungs] == [2e-4, 1e-4]
        for rung in est.rungs:
            traj = solve(SQUARE, 1.0, order, SolverConfig(rung.step, 1.7, est.threshold))
            assert rung.steps == traj.escape_index
            assert rung.wall_s > 0.0
        # the trace is read from the records
        assert est.refinement_trace == [(r.step, est.threshold, r.steps * r.step) for r in est.rungs]

    def test_partial_trace_names_first_missing_rung(self):
        # the coarsest march loses its root at step 220, beyond the horizon
        # of 215, so the ladder stops at its first rung with an empty trace
        order = FractionalOrder(0.5)
        seed = SolverConfig(8e-4, 215 * 8e-4, escape_threshold=1e10)
        with pytest.raises(NoBlowupDetected, match=r"threshold 1e\+10\)") as got:
            estimate_blowup(order, seed)
        with pytest.raises(NoBlowupDetected) as want:
            _ladder_direct(order, seed)
        assert str(got.value) == str(want.value)
        assert got.value.trace == want.value.trace == []

    def test_ladder_does_not_scale_with_the_horizon(self):
        # alpha = 0.1 blows up at 1.4e-6: the march at seed 2.5e-10, below the
        # seed cap, escapes after about 5e3 steps, however far the horizon lies
        order = FractionalOrder(0.1)
        far = estimate_blowup(order, SolverConfig(2.5e-10, 1.7, escape_threshold=1e10))
        near = estimate_blowup(order, SolverConfig(2.5e-10, 1e-4, escape_threshold=1e10))
        assert far.rungs[0].step == 2.5e-10
        assert (far.t_lo, far.t_hi, far.refinement_trace) == (near.t_lo, near.t_hi, near.refinement_trace)
        assert (far.t_lo, far.t_hi) == pytest.approx((1.397e-6, 1.397375e-6), rel=1e-12)

    # the CLI's ladder at the acceptance alphas: a change of summation order
    # that moves an escape index or a bracket fails here. Alpha 0.3 marches
    # from the seed cap; the bracket is [e - h, e + 2h]
    @pytest.mark.parametrize(
        "alpha, steps, bracket",
        [
            (0.3, [160, 320], (0.02189399270938726, 0.022099892327343877)),
            (0.5, [880, 1762], (0.1761, 0.1764)),
            (0.7, [2292, 4586], (0.4585, 0.4588)),
            (0.9, [4052, 8105], (0.8104, 0.8107)),
        ],
    )
    def test_pinned_escape_indices(self, alpha, steps, bracket):
        est = estimate_blowup(FractionalOrder(alpha), SolverConfig(2e-4, 1.7, 1e10))
        assert [r.steps for r in est.rungs] == steps
        assert (est.t_lo, est.t_hi) == bracket

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(0.0075, 1.0))
    def test_two_rungs_give_the_bracket_of_four(self, alpha):
        # the default ladder marches the last two rungs of the seed-8e-4, four-rung
        # ladder, here one solve per rung: the seed cap and the halvings leave the
        # same finest step
        order = FractionalOrder(alpha)
        two = estimate_blowup(order, SolverConfig(2e-4, 1.7))
        t_lo, t_hi, trace = _ladder_direct(order, SolverConfig(8e-4, 1.7), refinements=3)
        assert (two.t_lo, two.t_hi) == (t_lo, t_hi)
        assert two.refinement_trace == trace[-2:]

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(0.0075, 1.0))
    def test_kept_values_stay_below_the_root_bound(self, alpha):
        # a kept value is the root v = 2x / (1 + sqrt(1 - 4 c x)) of v = x + c v^2,
        # so v <= 2x <= 1 / (2c) = Gamma(alpha + 2) / (2 h^alpha): the threshold
        # 1e10 decides no default rung (measured worst v / bound 0.9915)
        order = FractionalOrder(alpha)
        marches = []

        def keeping(*args, **kwargs):
            marches.append(solve(*args, **kwargs))
            return marches[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fode, "solve", keeping)
            estimate_blowup(order, SolverConfig(2e-4, 1.7))
        assert len(marches) == 2
        for traj in marches:
            h = traj.samples.grid.step
            assert np.max(traj.values) <= math.gamma(alpha + 2.0) / (2.0 * h ** alpha) * (1.0 + 1e-12)

    def test_no_blowup_below_horizon(self):
        with pytest.raises(NoBlowupDetected):
            estimate_blowup(FractionalOrder(0.9), SolverConfig(1e-3, 0.05))

    def test_ladder_validation(self):
        # the threshold must exceed v(0) = 1
        with pytest.raises(ValueError, match="must exceed"):
            estimate_blowup(FractionalOrder(0.5), SolverConfig(1e-3, 1.7, escape_threshold=0.5))

    # the seed grid is valid; the halving takes horizon / step past the doubles,
    # or the step to 0
    @pytest.mark.parametrize("step, horizon, refused", [
        (1e-300, 1.5e8, "step 5e-301, .* horizon / step must be finite"),
        (5e-324, 1e-300, "step 0.0, .* step must be finite and > 0"),
    ])
    def test_invalid_finest_rung_is_refused_before_any_march(self, monkeypatch, step, horizon, refused):
        monkeypatch.setattr(fode, "solve", lambda *args, **kwargs: pytest.fail("a rung was marched"))
        with pytest.raises(ValueError, match=f"^ladder rung 1 \\({refused}") as err:
            estimate_blowup(FractionalOrder(0.5), SolverConfig(step, horizon))
        # the message names the derived rung, not only the step the caller never passed
        assert f"seed step {step!r}" in str(err.value)

    def test_seed_is_capped_by_the_comparison_bound(self):
        # below alpha ~ 0.33 the default seed 2e-4 is above 2 T_cmp / 100, so the
        # ladder marches from the cap: its finest rung takes at least ~100 steps
        for alpha in (0.01, 0.1, 0.3):
            order = FractionalOrder(alpha)
            est = estimate_blowup(order, SolverConfig(2e-4, 1.7))
            assert est.rungs[0].step == math.ldexp(comparison_lower_bound(order) / fode.SEED_STEPS, 1) < 2e-4
            assert est.rungs[-1].steps >= fode.SEED_STEPS
        # above it the seed stays the caller's, the largest the ladder takes
        assert estimate_blowup(FractionalOrder(0.5), SolverConfig(2e-4, 1.7)).rungs[0].step == 2e-4

    def test_underflowing_comparison_bound_is_refused_naming_alpha(self, monkeypatch):
        monkeypatch.setattr(fode, "solve", lambda *args, **kwargs: pytest.fail("a rung was marched"))
        with pytest.raises(ValueError, match="alpha 0.0015"):
            estimate_blowup(FractionalOrder(0.0015), SolverConfig(2e-4, 1.7))


def _rungs(steps, finest):
    """RungRecords of a ladder with these escape indices, coarsest first, halving down to `finest`."""
    n = len(steps)
    return [fode.RungRecord(math.ldexp(finest, n - 1 - i), s, 0.0) for i, s in enumerate(steps)]


class TestBracket:
    @settings(max_examples=200)
    @given(
        T=st.floats(1e-60, 2.0),
        per_step=st.floats(50.0, 2e4),
        picks=st.lists(st.integers(0, 1), min_size=2, max_size=2),
    )
    def test_contains_the_blow_up_time_of_the_offset_model(self, T, per_step, picks):
        # each of the two rungs escapes at e_i = T + o_i h_i with o_i in [-1.60, 0.53],
        # the offsets measured against 100x finer marches; e_i is a whole number of
        # steps, so each rung takes one of the (one or two) step counts in that window
        finest = T / per_step
        steps = []
        for i, pick in enumerate(picks):
            h = math.ldexp(finest, 1 - i)
            lo, hi = math.ceil(T / h - 1.6), math.floor(T / h + 0.53)
            assume(lo <= hi)
            steps.append(min(lo + pick, hi))
        rungs = _rungs(steps, finest)
        t_lo, t_hi = fode._bracket(rungs)
        assert t_lo <= T <= t_hi
        assert t_hi - t_lo == pytest.approx(3.0 * finest, rel=1e-12)

    # e_prev - e_fine of -5 h_fine and +4 h_fine, and a finest rung that
    # escapes at its first step
    @pytest.mark.parametrize("steps", [[100, 205], [100, 196], [1, 1]])
    def test_gate_refuses_rungs_that_disagree(self, steps):
        with pytest.raises(UnderResolvedLadder, match="under-resolved"):
            fode._bracket(_rungs(steps, 1e-3))

    # -4 and +3 finest steps apart: the edges of the band
    @pytest.mark.parametrize("steps", [[100, 204], [100, 197]])
    def test_gate_band_edges_pass(self, steps):
        t_lo, t_hi = fode._bracket(_rungs(steps, 1e-3))
        assert (t_lo, t_hi) == pytest.approx(((steps[1] - 1) * 1e-3, (steps[1] + 2) * 1e-3), rel=1e-15)

    # the six alphas of Known defect 1, three below its edge 0.2241 and two
    # whose finest offsets read +0.53 and +0.49, the ends of the documented
    # band; each default bracket contains the escape of a march 100x finer
    @pytest.mark.parametrize("alpha", [0.225, 0.45, 0.525, 0.625, 0.7, 0.975, 0.05, 0.1, 0.2, 0.002, 0.006])
    def test_contains_the_escape_of_a_march_100x_finer(self, alpha):
        order = FractionalOrder(alpha)
        est = estimate_blowup(order, SolverConfig(2e-4, 1.7))
        fine = solve(SQUARE, 1.0, order, SolverConfig(est.rungs[-1].step / 100.0, 1.7))
        assert fine.status == "escaped" and fine.escape_index == len(fine.values)  # at root loss
        assert est.t_lo <= fine.escape_time <= est.t_hi
