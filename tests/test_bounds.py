"""Analytic blow-up time bounds: frozen closed-form values, the internal
consistency of the two lower-bound expressions, envelope behavior, and the
monotonicity/limit laws of the upper bound."""

import mpmath as mp
import numpy as np
import pytest

from fracburgers import (
    ConsistencyError,
    FractionalOrder,
    SampledFunction,
    TimeGrid,
    caputo_left,
    envelope_w,
    envelope_z,
    limit_upper_bound,
    lower_bound_T,
    lower_bound_constants,
    monotonicity_scan_b,
    upper_bound_b,
)

FOUR_OVER_PI = 1.2732395447351628
EXP_ONE_MINUS_GAMMA = 1.5262051115958639
# frozen, independently derived with a high-precision script before the build
B_AT_1E4 = 1.5261558962779616
B_AT_001 = 1.5212812522110055
B_AT_099 = 1.0057643360187715
T_A05_D3 = 0.015915494309189534    # equals 1/(20*pi) exactly
T_A05_D05 = 0.004143070534337008


def FO(a):
    return FractionalOrder(a)


class TestUpperBound:
    def test_half_order_value(self):
        assert upper_bound_b(FO(0.5)) == pytest.approx(FOUR_OVER_PI, rel=1e-13)

    def test_near_classical(self):
        assert 1.0 < upper_bound_b(FO(0.999)) < 1.001

    def test_accuracy_contract(self):
        # relative error <= 2e-13 against mpmath over the orders the lower
        # bound accepts, alpha in [0.0075, 1]
        alphas = np.concatenate((np.linspace(0.0075, 1.0, 200), np.random.default_rng(9).uniform(0.0075, 1.0, 200)))
        with mp.workdps(40):
            for a in alphas:
                exact = mp.gamma(2 - mp.mpf(a)) ** (-1 / mp.mpf(a))
                assert abs(upper_bound_b(FO(a)) / exact - 1) <= 2e-13

    def test_small_order_approaches_limit(self):
        # the 1/alpha exponent amplifies the ~2e-16 absolute error of
        # log-gamma near its zero at 2, so ~2e-12 relative is the float64 floor
        b = upper_bound_b(FO(1e-4))
        assert b == pytest.approx(B_AT_1E4, rel=1e-11)
        assert abs(b - 1.52620511) <= 1e-4

    def test_classical_closure(self):
        assert upper_bound_b(FO(1.0)) == 1.0

    def test_spot_values_and_ordering(self):
        b001 = upper_bound_b(FO(0.01))
        b05 = upper_bound_b(FO(0.5))
        b099 = upper_bound_b(FO(0.99))
        assert b001 == pytest.approx(B_AT_001, rel=1e-12)
        assert b099 == pytest.approx(B_AT_099, rel=1e-12)
        assert b001 > b05 > b099 > 1.0

    def test_limit_law_near_one(self):
        # |b(1-eps) - 1| <= C*eps; fitted constant reported (theory: eps*gamma)
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            ratios.append(abs(upper_bound_b(FO(1.0 - eps)) - 1.0) / eps)
        assert max(ratios) <= 1.0
        print(f"\n[report] fitted C in |b(1-eps)-1| <= C*eps: {max(ratios):.4f}")

    def test_limit_law_near_zero(self):
        gaps = [abs(upper_bound_b(FO(eps)) - EXP_ONE_MINUS_GAMMA) for eps in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_monotonicity_scan(self):
        assert monotonicity_scan_b(99) is True
        with pytest.raises(ValueError):
            monotonicity_scan_b(9)


class TestLimitUpperBound:
    def test_value(self):
        assert limit_upper_bound() == pytest.approx(EXP_ONE_MINUS_GAMMA, rel=1e-13)
        assert limit_upper_bound() > 1.0

    def test_dominates_upper_bound(self):
        for a in np.arange(0.01, 1.0, 0.01):
            assert limit_upper_bound() >= upper_bound_b(FO(a))


class TestLowerBoundConstants:
    def test_delta_three_exact_constants(self):
        c = lower_bound_constants(FO(0.5), 3.0)
        assert c.kappa == pytest.approx(1.0, abs=1e-14)
        assert c.eta == pytest.approx(4.0, abs=1e-13)
        assert c.c_delta == pytest.approx(0.05, abs=1e-15)
        assert c.T == pytest.approx(T_A05_D3, rel=1e-12)
        assert c.T == pytest.approx(1.0 / (20.0 * np.pi), rel=1e-12)

    def test_classical_limit(self):
        # at alpha = 1 the horizon closes to 1/(1+delta) exactly
        assert lower_bound_T(FO(1.0), 3.0) == pytest.approx(0.25, rel=1e-12)
        assert lower_bound_T(FO(1.0 - 1e-6), 3.0) == pytest.approx(0.25, abs=1e-4)
        assert lower_bound_T(FO(1.0), 0.5) == pytest.approx(1.0 / 1.5, rel=1e-12)

    def test_frozen_default_delta_value(self):
        assert lower_bound_T(FO(0.5), 0.5) == pytest.approx(T_A05_D05, rel=1e-12)

    def test_two_expressions_agree_on_grid(self):
        # direct assembly vs closed form, 20x20 grid, relative 1e-10
        import math

        from fracburgers.specfun import log_gamma

        for a in np.linspace(0.05, 0.95, 20):
            for delta in np.linspace(0.1, 5.0, 20):
                c = lower_bound_constants(FO(a), delta)
                closed = math.exp(
                    ((1.0 - a) / a) * math.log(c.c_delta) - log_gamma(2.0 - a) / a
                ) / (1.0 + delta)
                assert abs(c.T - closed) <= 1e-10 * abs(closed)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            lower_bound_constants(FO(0.5), 0.0)
        with pytest.raises(ValueError):
            lower_bound_constants(FO(0.5), -1.0)

    @pytest.mark.parametrize("alpha", [1e-3, 5e-3, 7.4e-3])
    def test_unrepresentable_small_order_raises(self, alpha):
        # T is below the smallest double here (about exp(-756)/1.5 at 0.007):
        # d underflows to 0, or the constant a overflows
        with pytest.raises(ConsistencyError, match="double precision"):
            lower_bound_constants(FO(alpha), 0.5)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    def test_small_and_large_delta_match_mpmath(self, alpha):
        # sqrt(1 + delta) - 1 cancels for small delta; the constants must not
        deltas = [m * 10.0 ** e for e in range(-15, 1) for m in (1.0, 3.0)] + [0.5, 10.0]
        with mp.workdps(50):
            a = mp.mpf(alpha)
            for delta in deltas:
                c = lower_bound_constants(FO(alpha), delta)
                kappa = mp.sqrt(1 + mp.mpf(delta)) - 1
                eta = (1 + kappa) ** 2 / kappa ** 2
                c_delta = kappa ** 3 / ((1 + kappa) ** 2 * (1 + 2 * kappa + 2 * kappa ** 2))
                T = c_delta ** ((1 - a) / a) / (mp.gamma(2 - a) ** (1 / a) * (1 + mp.mpf(delta)))
                for got, want in ((c.kappa, kappa), (c.eta, eta), (c.T, T)):
                    assert abs(got - want) <= 1e-12 * abs(want), (delta, got, want)

    @pytest.mark.parametrize("delta", [5e-324, 1e-300, 1e200, 1e300])
    def test_delta_whose_constants_leave_double_precision_raises(self, delta):
        with pytest.raises(ConsistencyError, match="double precision"):
            lower_bound_constants(FO(0.5), delta)

    def test_sandwich_orders(self):
        for delta in (0.1, 0.5, 1.0, 3.0):
            for a in np.linspace(0.05, 0.95, 15):
                assert lower_bound_T(FO(a), delta) < upper_bound_b(FO(a))


class TestEnvelopes:
    def test_w_values(self):
        order = FO(0.5)
        b = upper_bound_b(order)
        assert envelope_w(order, 0.0) == 1.0
        assert envelope_w(order, b / 2) == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(ValueError):
            envelope_w(order, b)
        with pytest.raises(ValueError):
            envelope_w(order, -0.1)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_w_differential_inequality(self, alpha):
        # memory derivative of w stays below w^2 (1e-2 relative slack),
        # checked through the same L1 operator the solver uses
        order = FO(alpha)
        b = upper_bound_b(order)
        grid = TimeGrid(0.9 * b / 4000, 4000)
        w = SampledFunction(grid, np.array([envelope_w(order, t) for t in grid.times]))
        dw = caputo_left(w, order).values[1:]
        w2 = w.values[1:] ** 2
        assert np.all(dw <= w2 * (1.0 + 1e-2))

    def test_z_values(self):
        order = FO(0.5)
        c = lower_bound_constants(order, 0.5)
        assert envelope_z(order, 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)
        ts = np.linspace(0.0, c.T * 0.999, 50)
        zs = np.array([envelope_z(order, 0.5, t) for t in ts])
        assert np.all(np.diff(zs) > 0.0)
        with pytest.raises(ValueError):
            envelope_z(order, 0.5, 1.0 / c.b)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_z_differential_inequality_past_delay(self, alpha):
        # The subsolution inequality L1(z) >= z^2 activates only after the
        # construction delay d: for t < d the memory derivative of any
        # finite-slope function vanishes like t^(1-alpha) while z^2 ~ 1, so the
        # inequality provably cannot hold there (the defining chain integrates
        # over (t-d, t), which needs t >= d). Checked on [d, 0.98 T].
        order = FO(alpha)
        c = lower_bound_constants(order, 0.5)
        grid = TimeGrid(0.98 * c.T / 4000, 4000)
        z = SampledFunction(grid, np.array([envelope_z(order, 0.5, t) for t in grid.times]))
        dz = caputo_left(z, order).values
        ratio = dz[1:] / z.values[1:] ** 2
        mask = grid.times[1:] >= c.d
        assert mask.sum() > 100
        assert np.all(ratio[mask] >= 1.0 - 1e-2)
        print(
            f"\n[report] alpha={alpha}: min L1(z)/z^2 on [d, 0.98T] = {ratio[mask].min():.4f}; "
            f"below the delay the ratio drops to {ratio[~mask].min() if (~mask).any() else float('nan'):.4f}"
        )

    def test_nonfinite_delta_rejected(self):
        with pytest.raises((ConsistencyError, ValueError)):
            lower_bound_constants(FO(0.5), float("inf"))
