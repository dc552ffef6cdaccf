"""Discrete fractional operators: exactness contracts, closed-form spot
values frozen from pre-build oracles, and structural properties."""

import bisect
import math
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracburgers import frac_ops
from fracburgers import (
    FractionalOrder,
    PowerTestFunction,
    SampledFunction,
    TimeGrid,
    caputo_left,
    classical_derivative,
    gamma,
    phi_test_integrals,
    rl_fractional_integral,
    rl_right_derivative_phi,
)

# frozen oracle values (adaptive quadrature of the defining integrals,
# mpmath closed forms; see the derivations in the test bodies)
CAPUTO_T_A05_AT_1 = 1.1283791670955126     # 1/Gamma(1.5)
CAPUTO_T_A025_AT_2 = 1.8299003401582031    # 2^0.75/Gamma(1.75)
RIGHT_RL_LAM2_A05_T1_AT_0 = 1.50450555612735
RIGHT_RL_LAM3_A05_T2_AT_1 = 0.2256758334191025
# quadrature of the validated right-RL derivative at (lam=2, alpha=0.5, T=1)
I1_QUADRATURE = 0.60180222245094
I2_QUADRATURE = 1.131768484209033


def sample(fn, step, count):
    grid = TimeGrid(step, count)
    return SampledFunction(grid, fn(grid.times))


class TestGridTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(-1e-3, 10)
        with pytest.raises(ValueError):
            TimeGrid(1e-3, 0)

    def test_spanning_step_count(self):
        assert TimeGrid.spanning(1e-3, 1.0) == TimeGrid(1e-3, 1000)
        assert TimeGrid.spanning(0.5, 1.25).count == 2  # 2.5 rounds half to even
        assert TimeGrid.spanning(2.0, 1.0).count == 1  # at least one step
        assert TimeGrid.spanning(1e-12, 1.0).count == 10 ** 12  # no step budget

    @pytest.mark.parametrize("step, horizon, message", [
        (0.0, 1.0, "step must be finite and > 0"),
        (math.nan, 1.0, "step must be finite and > 0"),
        (1e-3, -math.inf, "horizon must be finite and > 0"),
        (1e-300, 1e300, "horizon / step must be finite"),
        (5e-324, 0.01, "horizon / step must be finite"),
    ])
    def test_spanning_refuses(self, step, horizon, message):
        with pytest.raises(ValueError, match=message):
            TimeGrid.spanning(step, horizon)

    def test_sampled_validation(self):
        grid = TimeGrid(0.1, 10)
        with pytest.raises(ValueError):
            SampledFunction(grid, np.ones(10))  # needs 11 values
        with pytest.raises(ValueError):
            SampledFunction(grid, np.r_[np.ones(10), np.inf])

    def test_order_validation(self):
        for bad in (0.0, -0.5, 1.5, np.nan):
            with pytest.raises(ValueError):
                FractionalOrder(bad)
        assert FractionalOrder(1.0).is_classical

    def test_value_at_interpolates(self):
        f = sample(lambda t: 2 * t, 0.1, 10)
        assert f.value_at(0.35) == pytest.approx(0.7, rel=1e-14)
        with pytest.raises(ValueError):
            f.value_at(1.5)


class TestCaputo:
    def test_constant_annihilated_exactly(self):
        f = sample(lambda t: 5.0 * np.ones_like(t), 0.01, 200)
        d = caputo_left(f, FractionalOrder(0.5))
        assert np.all(d.values == 0.0)

    def test_linear_frozen_values(self):
        f = sample(lambda t: t, 1e-3, 1000)
        d = caputo_left(f, FractionalOrder(0.5))
        assert d.values[-1] == pytest.approx(CAPUTO_T_A05_AT_1, rel=1e-12)

        f2 = sample(lambda t: t, 2e-3, 1000)
        d2 = caputo_left(f2, FractionalOrder(0.25))
        assert d2.values[-1] == pytest.approx(CAPUTO_T_A025_AT_2, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_affine_exactness(self, alpha):
        # L1 is the exact Caputo derivative of the piecewise-linear
        # interpolant, so affine data reproduces the closed form a*t^(1-a)/G(2-a)
        rng = np.random.default_rng(11)
        a, c = rng.uniform(-3, 3), rng.uniform(-3, 3)
        f = sample(lambda t: a * t + c, 1e-3, 500)
        d = caputo_left(f, FractionalOrder(alpha))
        t = f.times[1:]
        expected = a * t ** (1.0 - alpha) / gamma(2.0 - alpha)
        np.testing.assert_allclose(d.values[1:], expected, rtol=1e-12, atol=1e-13)
        assert d.values[0] == 0.0

    def test_classical_order_rejected(self):
        f = sample(lambda t: t, 0.1, 10)
        with pytest.raises(ValueError):
            caputo_left(f, FractionalOrder(1.0))

    def test_linearity(self):
        rng = np.random.default_rng(5)
        grid = TimeGrid(0.01, 100)
        order = FractionalOrder(0.6)
        f = SampledFunction(grid, rng.normal(size=101))
        g = SampledFunction(grid, rng.normal(size=101))
        a, b = rng.normal(), rng.normal()
        combo = SampledFunction(grid, a * f.values + b * g.values)
        lhs = caputo_left(combo, order).values
        rhs = a * caputo_left(f, order).values + b * caputo_left(g, order).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_constant_shift_annihilated(self):
        # weights act on increments, so shifting by a constant changes the
        # result only through the rounding of the shifted samples themselves
        # (observed ~1e-14 here; a constant *function* maps to exactly zero)
        rng = np.random.default_rng(9)
        grid = TimeGrid(0.01, 150)
        f = SampledFunction(grid, rng.normal(size=151))
        for c in rng.normal(size=5):
            shifted = SampledFunction(grid, f.values + c)
            d1 = caputo_left(f, FractionalOrder(0.4))
            d2 = caputo_left(shifted, FractionalOrder(0.4))
            np.testing.assert_allclose(d1.values, d2.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.4, 0.7])
    def test_composition_recovers_function(self, alpha):
        # I^a(D^a f) = f - f(0) with O(step) error, observed order >= 0.9
        order = FractionalOrder(alpha)
        errs = []
        for n in (400, 800):
            f = sample(lambda t: np.cos(3 * t), 1.0 / n, n)
            comp = rl_fractional_integral(caputo_left(f, order), order)
            errs.append(np.max(np.abs(comp.values - (f.values - f.values[0]))))
        assert np.log2(errs[0] / errs[1]) >= 0.9

    @pytest.mark.parametrize("alpha", [0.5, 0.75])
    def test_time_rescaling_identity(self, alpha):
        # D^a[f(s.)](t) = s^a (D^a f)(s t); s = 2 on compatible grids, with the
        # residual shrinking under refinement (two-resolution check)
        order = FractionalOrder(alpha)
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

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_convergence_order_quadratic(self, alpha):
        order = FractionalOrder(alpha)
        errs = []
        for n in (400, 800):
            f = sample(lambda t: t ** 2, 1.0 / n, n)
            d = caputo_left(f, order)
            t = f.times[1:]
            exact = 2.0 * t ** (2.0 - alpha) / gamma(3.0 - alpha)
            errs.append(np.max(np.abs(d.values[1:] - exact)))
        observed = np.log2(errs[0] / errs[1])
        assert observed >= 2.0 - alpha - 0.2

    def test_concurrent_evaluation_is_deterministic(self):
        # concurrent callers share no mutable state
        f = sample(lambda t: np.sin(t), 1e-3, 400)
        order = FractionalOrder(0.5)
        ref = caputo_left(f, order).values
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: caputo_left(f, order).values, range(16)))
        for r in results:
            assert np.array_equal(r, ref)


class TestClassicalDerivative:
    def test_constant(self):
        d = classical_derivative(sample(lambda t: 4.2 * np.ones_like(t), 0.1, 20))
        assert np.all(d.values == 0.0)

    def test_linear(self):
        d = classical_derivative(sample(lambda t: t, 0.1, 20))
        np.testing.assert_allclose(d.values[1:], 1.0, rtol=1e-13)

    def test_quadratic_backward_difference(self):
        h = 0.05
        f = sample(lambda t: t ** 2, h, 40)
        d = classical_derivative(f)
        t = f.times[1:]
        np.testing.assert_allclose(d.values[1:], 2 * t - h, rtol=1e-12)


class TestRlIntegral:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_constant_closed_form(self, alpha):
        g = sample(lambda t: np.ones_like(t), 1e-3, 1000)
        integ = rl_fractional_integral(g, FractionalOrder(alpha))
        t = g.times[1:]
        expected = t ** alpha / gamma(alpha + 1.0)
        np.testing.assert_allclose(integ.values[1:], expected, rtol=1e-10)
        assert integ.values[0] == 0.0

    def test_zero(self):
        g = sample(lambda t: np.zeros_like(t), 0.01, 50)
        assert np.all(rl_fractional_integral(g, FractionalOrder(0.7)).values == 0.0)

    def test_classical_limit_is_trapezoid(self):
        g = sample(lambda t: t, 1e-3, 2000)
        integ = rl_fractional_integral(g, FractionalOrder(1.0))
        assert integ.values[-1] == pytest.approx(2.0, rel=1e-12)


def _interpolant_terms(values, h, alpha, caputo):
    """Per-segment closed forms for the piecewise-linear interpolant, in mpmath.

    Returns terms[n] for n = 1..N: the list whose sum is the exact Caputo
    derivative (caputo=True) or RL integral at t_n. With u = t_n - tau and
    u_k = k h, the segment [t_j, t_(j+1)] spans u in [u_k, u_(k+1)] at lag
    k = n - j - 1. Its Caputo term is the slope times
    (u_(k+1)^(1-alpha) - u_k^(1-alpha)) / Gamma(2-alpha); its two RL terms are
    g_j and g_(j+1) times the integrals of their hat functions, (u - u_k)/h
    and (u_(k+1) - u)/h, against u^(alpha-1)/Gamma(alpha).
    """
    a, h = mp.mpf(alpha), mp.mpf(h)
    g = [mp.mpf(v) for v in values]
    n = len(g) - 1
    u = [k * h for k in range(n + 1)]
    if caputo:
        w = [(u[k + 1] ** (1 - a) - u[k] ** (1 - a)) / mp.gamma(2 - a) for k in range(n)]
        slopes = [(g[j + 1] - g[j]) / h for j in range(n)]
        return [[slopes[j] * w[m - j - 1] for j in range(m)] for m in range(1, n + 1)]
    lo, hi = [], []  # the weights of g_j and g_(j+1) at lag k
    for k in range(n):
        da = (u[k + 1] ** a - u[k] ** a) / a
        db = (u[k + 1] ** (a + 1) - u[k] ** (a + 1)) / (a + 1)
        lo.append((db - u[k] * da) / (h * mp.gamma(a)))
        hi.append((u[k + 1] * da - db) / (h * mp.gamma(a)))
    return [
        [t for j in range(m) for t in (g[j] * lo[m - j - 1], g[j + 1] * hi[m - j - 1])]
        for m in range(1, n + 1)
    ]


class TestPiecewiseLinearExactness:
    # both batch operators are exact on the piecewise-linear interpolant of
    # arbitrary node values, up to a normwise roundoff of the convolution
    @settings(max_examples=60)
    @given(
        values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=65),
        alpha=st.floats(0.02, 1.0),
        h=st.floats(1e-3, 1.0),
        caputo=st.booleans(),
    )
    def test_matches_per_segment_closed_forms(self, values, alpha, h, caputo):
        assume(not (caputo and alpha == 1.0))  # the Caputo operator refuses the classical order
        f = SampledFunction(TimeGrid(h, len(values) - 1), np.array(values))
        op = caputo_left if caputo else rl_fractional_integral
        got = op(f, FractionalOrder(alpha)).values
        with mp.workdps(40):
            terms = _interpolant_terms(values, h, alpha, caputo)
            want = np.array([float(mp.fsum(row)) for row in terms])
            scale = max(float(mp.fsum(abs(t) for t in row)) for row in terms)
        assert got[0] == 0.0
        assert np.max(np.abs(got[1:] - want)) <= 1e-13 * scale


def _table(kind, alpha, n):
    """The L1 weights b_0..b_{n-1} or the product-trapezoid interior weights d_1..d_n."""
    return frac_ops._power_increments(1.0 - alpha, n) if kind == "l1" else frac_ops._pt_weights(alpha, n)


def _convolve_reference(g, w):
    """np.convolve(g, w)[:n], summed term by term, and max_m sum_k |w_k| |g_(m-k)|."""
    n = len(g)
    return np.convolve(g, w)[:n], np.max(np.convolve(np.abs(g), np.abs(w))[:n])


TABLES = [("l1", a) for a in (0.05, 0.5, 0.999)] + [("pt", a) for a in (0.05, 0.5, 0.999, 1.0)]


class TestBatchConvolution:
    # the one-FFT batch path against the direct convolution: the FFT rounds
    # normwise, a few ulps of the largest magnitude sum, not entry by entry
    @pytest.mark.parametrize(
        "n, kind, alpha",
        [(n, *t) for n in (1, 2, 3, 17, 1000, 4097) for t in TABLES]
        # 5e4 at one alpha per table: each direct convolution takes ~0.6 s there
        + [(50_000, "l1", 0.5), (50_000, "pt", 0.5)],
    )
    def test_matches_np_convolve(self, n, kind, alpha):
        w = _table(kind, alpha, n)
        assert np.all(w > 0.0)
        signed = np.random.default_rng(n).standard_normal(n)
        # |g| * w is the reference for the positive data |g| and the scale of both
        magnitude = np.convolve(np.abs(signed), w)[:n]
        for g, want in ((signed, np.convolve(signed, w)[:n]), (np.abs(signed), magnitude)):
            got = frac_ops._causal_convolution(g, w)
            assert got.shape == (n,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(magnitude)

    def test_padding_is_the_smallest_5_smooth_length(self):
        # every length 2n - 1 up to n = 5000 against a brute-force list of 2^i 3^j 5^k
        smooth = sorted({2**i * 3**j * 5**k for i in range(15) for j in range(10) for k in range(7)})
        lengths = range(1, 2 * 5000)
        want = [smooth[bisect.bisect_left(smooth, m)] for m in lengths]
        assert [frac_ops._smooth_length(m) for m in lengths] == want

    def test_uses_only_the_first_n_weights(self):
        g, w = np.arange(1.0, 6.0), _table("l1", 0.3, 9)
        np.testing.assert_array_equal(frac_ops._causal_convolution(g, w), frac_ops._causal_convolution(g, w[:5]))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    def test_zero_data_give_positive_zeros(self, n):
        # signed weights leave -0.0 in the raw transform of zero data
        signed = np.random.default_rng(n).standard_normal(n)
        for w in [signed, -np.abs(signed)] + [_table(kind, alpha, n) for kind, alpha in TABLES]:
            out = frac_ops._causal_convolution(np.zeros(n), w)
            assert np.all(out == 0.0) and not np.any(np.signbit(out))

    @pytest.mark.parametrize("count", [1, 2, 3, 1000])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999])
    def test_caputo_matches_direct_convolution(self, count, alpha):
        rng = np.random.default_rng(count)
        f = SampledFunction(TimeGrid(0.01, count), rng.standard_normal(count + 1))
        got = caputo_left(f, FractionalOrder(alpha)).values
        c = 0.01 ** -alpha / gamma(2.0 - alpha)
        want, scale = _convolve_reference(np.diff(f.values), _table("l1", alpha, count))
        assert got[0] == 0.0
        assert np.max(np.abs(got[1:] - c * want)) <= 1e-13 * c * scale

    @pytest.mark.parametrize("count", [1, 2, 3, 1000])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999, 1.0])
    def test_rl_integral_matches_direct_convolution(self, count, alpha):
        rng = np.random.default_rng(count)
        g = SampledFunction(TimeGrid(0.01, count), rng.standard_normal(count + 1))
        got = rl_fractional_integral(g, FractionalOrder(alpha)).values
        c = 0.01 ** alpha / gamma(alpha + 2.0)
        d = _table("pt", alpha, count)
        with mp.workdps(40):  # the left-boundary weight of g(t_0) at target t_n
            a = mp.mpf(alpha)
            a0 = np.array([float((n - 1) ** (a + 1) - n ** a * (n - a - 1)) for n in map(mp.mpf, range(1, count + 1))])
        v = g.values
        inner, scale = _convolve_reference(v[1:count], d) if count >= 2 else (np.zeros(0), 0.0)
        want = c * (a0 * v[0] + np.r_[0.0, inner] + v[1:])
        assert got[0] == 0.0
        assert np.max(np.abs(got[1:] - want)) <= 1e-13 * c * scale + 4e-16 * np.max(np.abs(want))

    def test_constant_and_zero_inputs_give_positive_zeros(self):
        const = sample(lambda t: 5.0 * np.ones_like(t), 0.01, 200)
        zero = sample(np.zeros_like, 0.01, 200)
        for out in (caputo_left(const, FractionalOrder(0.5)), rl_fractional_integral(zero, FractionalOrder(0.7))):
            assert np.all(out.values == 0.0) and not np.any(np.signbit(out.values))


B = frac_ops._BLOCK


def _direct_lagged_sum(table, g, n):
    """s_n = sum_{k=1}^{n} w_k g_{n-k} as one dot, and the same sum of |w_k| |g_{n-k}|."""
    lags = table[..., :n][..., ::-1]  # w_n..w_1 against g_0..g_{n-1}
    return np.dot(lags, g[:n]), np.dot(np.abs(lags), np.abs(g[:n]))


class TestLaggedSum:
    # the blocked-FFT sum against the direct dot at every n: the reordering
    # is exact, so only roundoff separates the two
    @pytest.mark.parametrize("capacity", [1, B - 1, B, B + 1, 5 * B + 3, 4096 + 17])
    @pytest.mark.parametrize("kind", ["scalar", "rows", "two weight rows"])
    def test_matches_direct_dot(self, capacity, kind):
        rng = np.random.default_rng(capacity)
        if kind == "two weight rows":  # the fode predictor and corrector rows
            def weights(m):
                return np.stack((frac_ops._power_increments(0.37, m), frac_ops._pt_weights(0.37, m)))
            g, shape = rng.random(capacity), ()
        elif kind == "rows":  # the pde L1 weights on rows of slice differences
            def weights(m):
                return frac_ops._power_increments(0.63, m + 1)[1:]
            g, shape = rng.standard_normal((capacity, 5)), (5,)
        else:
            def weights(m):
                return frac_ops._power_increments(0.37, m)
            g, shape = rng.random(capacity), ()
        table = weights(capacity)
        tables = frac_ops.LagTables(weights)
        memory = frac_ops.LaggedSum(tables, capacity + 1, shape)  # s_n for n <= capacity
        assert np.all(np.asarray(memory.value()) == 0.0)
        for n in range(1, capacity + 1):
            memory.append(g[n - 1])
            got = memory.value()
            want, scale = _direct_lagged_sum(table, g, n)
            if kind == "rows":
                assert isinstance(got, np.ndarray)
            else:
                # a scalar history sums to Python floats, one per weight row,
                # with the bits of the far row plus the near dot as ndarrays
                assert type(got) is float if kind == "scalar" else [type(x) for x in got] == [float, float]
                r = n % B
                bits = memory._far[n] + np.dot(tables._near[r], memory._history[n - r : n])
                assert np.asarray(got).tobytes() == bits.tobytes()
                got = np.asarray(got)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize(
        "capacity, appends, longest",
        [
            (100_000, 4 * B, 8 * B - 1),  # the level of 4B entries, not the capacity
            (2 * B, 2 * B, 2 * B - 1),  # a block ending at the last entry feeds no sum: never run
        ],
    )
    def test_weight_tables_grow_with_the_history(self, capacity, appends, longest):
        asked = []

        def weights(m):
            asked.append(m)
            return frac_ops._power_increments(0.5, m)

        tables = frac_ops.LagTables(weights)
        memory = frac_ops.LaggedSum(tables, capacity)
        for _ in range(appends):
            memory.append(1.0)
        # one table serves every level reached: fourfold growth starts at
        # 1024 lags and stops at 2 * capacity
        assert asked == [min(1024, 2 * capacity)]
        # the spectrum of the largest level L reached reads lags up to 2L - 1
        assert 2 * (tables._spectra[-1].shape[1] - 1) - 1 == longest

    @pytest.mark.parametrize("capacities", [(300, 3000), (3000, 300)])
    def test_shared_tables_give_the_bits_of_fresh_ones(self, capacities):
        # the pde weight kind on row histories: the march that runs second
        # reads a table grown by the first, or grows the one the first left
        def weights(m):
            return frac_ops._power_increments(0.63, m + 1)[1:]

        rng = np.random.default_rng(7)
        shared = frac_ops.LagTables(weights)
        for capacity in capacities:
            g = rng.standard_normal((capacity, 3))
            sums = []
            for tables in (shared, frac_ops.LagTables(weights)):
                memory = frac_ops.LaggedSum(tables, capacity, (3,))
                values = []
                for row in g[:-1]:
                    memory.append(row)
                    values.append(memory.value())
                sums.append(np.array(values).tobytes())
            assert sums[0] == sums[1]

    @pytest.mark.parametrize("rows", [1, 2])
    def test_buffers_grow_with_the_history_not_the_capacity(self, rows):
        # doubling from B rows: 4B entries hold 8B rows, the far sums of the
        # targets the 4B block reaches; the capacity is only an upper limit
        def weights(m):
            table = frac_ops._power_increments(0.5, m)
            return np.stack([table] * rows) if rows > 1 else table

        memory = frac_ops.LaggedSum(frac_ops.LagTables(weights), 10 ** 9)
        for _ in range(4 * B):
            memory.append(1.0)
        assert len(memory._history) <= 8 * B and len(memory._far) <= 8 * B
        want, _ = _direct_lagged_sum(weights(4 * B), np.ones(4 * B), 4 * B)
        assert np.allclose(memory.value(), want, rtol=1e-13, atol=0.0)


class TestWeightTables:
    # the product-trapezoid closed forms in 40 digits; in doubles they cancel
    # about n^2-fold, so the tables sum binomial series instead
    N_MAX = 10 ** 6
    NS = np.unique(np.r_[np.arange(1, 70), np.geomspace(70, N_MAX, 120).astype(int), N_MAX]).tolist()

    @staticmethod
    def _closed_form(alpha, form):
        with mp.workdps(40):
            return np.array([float(form(mp.mpf(alpha), mp.mpf(n))) for n in TestWeightTables.NS])

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_power_increments_match_mpmath(self, p):
        # (k+1)^p - k^p cancels about k/p-fold as written; the table keeps
        # every entry within a few ulps
        table = frac_ops._power_increments(p, self.N_MAX + 1)
        want = self._closed_form(p, lambda q, k: (k + 1) ** q - k ** q)
        assert table[0] == 1.0
        assert np.max(np.abs(table[self.NS] - want) / want) <= 1e-15

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9, 1.0])
    def test_interior_weights_match_mpmath(self, alpha):
        got = frac_ops._pt_weights(alpha, self.N_MAX)[np.array(self.NS) - 1]
        want = self._closed_form(alpha, lambda a, k: (k + 1) ** (a + 1) + (k - 1) ** (a + 1) - 2 * k ** (a + 1))
        assert np.max(np.abs(got - want) / want) <= 1e-14


class TestPowerTestFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerTestFunction(1.5, 1.0)
        with pytest.raises(ValueError):
            PowerTestFunction(2.0, 0.0)

    def test_right_derivative_frozen_values(self):
        phi = PowerTestFunction(2.0, 1.0)
        val = rl_right_derivative_phi(phi, FractionalOrder(0.5), 0.0)
        assert val == pytest.approx(RIGHT_RL_LAM2_A05_T1_AT_0, rel=1e-12)

        phi = PowerTestFunction(3.0, 2.0)
        val = rl_right_derivative_phi(phi, FractionalOrder(0.5), 1.0)
        assert val == pytest.approx(RIGHT_RL_LAM3_A05_T2_AT_1, rel=1e-12)

    def test_right_derivative_vanishes_at_horizon(self):
        phi = PowerTestFunction(2.0, 1.0)
        assert rl_right_derivative_phi(phi, FractionalOrder(0.5), 1.0 - 1e-9) < 1e-12
        with pytest.raises(ValueError):
            rl_right_derivative_phi(phi, FractionalOrder(0.5), 1.0)

    def test_right_derivative_against_quadrature(self):
        # independent route: differentiate the kernel integral numerically
        lam, alpha, T, t0 = 2.0, 0.3, 1.5, 0.4
        phi = PowerTestFunction(lam, T)
        order = FractionalOrder(alpha)

        def kernel_integral(s):
            val, _ = quad(
                lambda tau: (1 - tau / T) ** lam * (tau - s) ** (-alpha),
                s,
                T,
                limit=200,
            )
            return val / gamma(1.0 - alpha)

        eps = 1e-5
        numeric = -(kernel_integral(t0 + eps) - kernel_integral(t0 - eps)) / (2 * eps)
        closed = rl_right_derivative_phi(phi, order, t0)
        assert closed == pytest.approx(numeric, rel=1e-5)


def _quadrature_integrals(phi, order):
    """Adaptive quadrature of the two test-function integrals of the validated derivative."""
    lam, T = phi.exponent, phi.horizon

    def dphi(t):
        return rl_right_derivative_phi(phi, order, t)

    i1, _ = quad(dphi, 0.0, T, limit=200)
    i2, _ = quad(lambda t: dphi(t) ** 2 / (1.0 - t / T) ** lam, 0.0, T, limit=200)
    return i1, i2


class TestPhiIntegrals:
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("lam", [171.0, 200.0, 1000.0])
    def test_large_exponents_stay_finite(self, lam, alpha):
        # Gamma(lam + 1) overflows from lam = 171 on; the ratios do not
        phi, order = PowerTestFunction(lam, 1.0), FractionalOrder(alpha)
        i1, i2 = phi_test_integrals(phi, order)
        with mp.workdps(40):
            L, A = mp.mpf(lam), mp.mpf(alpha)
            c = mp.gamma(L + 1) / mp.gamma(L + 1 - A)
            for got, exact in (
                (i1, mp.gamma(L + 1) / mp.gamma(L + 2 - A)),
                (i2, c**2 / (L + 1 - 2 * A)),
                (rl_right_derivative_phi(phi, order, 0.25), c * mp.mpf(0.75) ** (L - A)),
            ):
                assert abs(got / exact - 1) <= 1e-10

    def test_frozen_values(self):
        # the printed closed forms sit 18% and 39% above these values
        phi = PowerTestFunction(2.0, 1.0)
        order = FractionalOrder(0.5)
        for i1, i2 in (phi_test_integrals(phi, order), _quadrature_integrals(phi, order)):
            assert i1 == pytest.approx(I1_QUADRATURE, rel=1e-10)
            assert i2 == pytest.approx(I2_QUADRATURE, rel=1e-10)

    def test_classical_order_rejected(self):
        with pytest.raises(ValueError):
            phi_test_integrals(PowerTestFunction(2.0, 1.0), FractionalOrder(1.0))

    def test_homogeneity_in_horizon(self):
        order = FractionalOrder(0.5)
        i1a, i2a = phi_test_integrals(PowerTestFunction(2.0, 1.0), order)
        i1b, i2b = phi_test_integrals(PowerTestFunction(2.0, 2.0), order)
        assert i1b / i1a == pytest.approx(2.0 ** 0.5, rel=1e-12)
        assert i2b / i2a == pytest.approx(2.0 ** 0.0, rel=1e-12)

        order = FractionalOrder(0.25)
        i1a, i2a = phi_test_integrals(PowerTestFunction(3.0, 1.0), order)
        i1b, i2b = phi_test_integrals(PowerTestFunction(3.0, 2.0), order)
        assert i1b / i1a == pytest.approx(2.0 ** 0.75, rel=1e-12)
        assert i2b / i2a == pytest.approx(2.0 ** 0.5, rel=1e-12)

    @pytest.mark.parametrize("lam, alpha, horizon", [(2.0, 0.5, 1.0), (3.0, 0.25, 2.0), (5.5, 0.8, 0.7)])
    def test_elementary_route_matches_quadrature(self, lam, alpha, horizon):
        phi = PowerTestFunction(lam, horizon)
        order = FractionalOrder(alpha)
        e1, e2 = phi_test_integrals(phi, order)
        q1, q2 = _quadrature_integrals(phi, order)
        assert e1 == pytest.approx(q1, rel=1e-10)
        assert e2 == pytest.approx(q2, rel=1e-10)
