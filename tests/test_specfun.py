"""Accuracy contracts of the special-function primitives, checked against an
independent high-precision implementation (mpmath)."""

import math

import mpmath as mp
import numpy as np
import pytest

from fracburgers import specfun

mp.mp.dps = 30

# frozen before the build: half-integer identity Gamma(3/2) = sqrt(pi)/2
GAMMA_1_5 = 0.8862269254527580
EXP_ONE_MINUS_GAMMA = 1.5262051115958639


def test_gamma_integers():
    assert specfun.gamma(1.0) == pytest.approx(1.0, abs=1e-15)
    assert specfun.gamma(2.0) == pytest.approx(1.0, abs=1e-15)


def test_gamma_half_integer():
    assert specfun.gamma(1.5) == pytest.approx(GAMMA_1_5, rel=1e-13)
    assert specfun.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)


def test_gamma_accuracy_contract():
    # relative error <= 1e-13 on (0.5, 3]
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.5 + 1e-6, 3.0, size=300)
    for x in xs:
        exact = float(mp.gamma(mp.mpf(x)))
        assert abs(specfun.gamma(x) - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan")])
def test_gamma_domain_error(bad):
    with pytest.raises(ValueError):
        specfun.gamma(bad)
    with pytest.raises(ValueError):
        specfun.log_gamma(bad)


def test_gamma_overflows_to_inf():
    # Gamma(x) ~ 1/x below 5.6e-309 and grows past the largest double above
    # 171.62; alpha = 5e-324 is a valid order, so gamma must not raise there
    assert specfun.gamma(5e-324) == math.inf
    assert specfun.gamma(171.7) == math.inf
    assert math.isfinite(specfun.gamma(171.6))


def test_log_gamma_accuracy_contract():
    # absolute error <= 4e-15 on (0.5, 3]
    rng = np.random.default_rng(5)
    with mp.workdps(40):
        for x in np.concatenate((rng.uniform(0.5 + 1e-6, 3.0, size=300), [1.0, 2.0, 3.0])):
            assert abs(specfun.log_gamma(x) - float(mp.loggamma(mp.mpf(x)))) <= 4e-15


def test_gamma_recurrence():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.5, 2.0, size=1000):
        lhs = specfun.gamma(x + 1.0)
        assert abs(lhs - x * specfun.gamma(x)) <= 1e-12 * lhs


def test_gamma_interior_minimum():
    # decreasing before the minimum, increasing after, minimum in (1.46, 1.47)
    xs = np.arange(1.0, 2.0 + 1e-9, 1e-3)
    vals = np.array([specfun.gamma(x) for x in xs])
    imin = int(np.argmin(vals))
    assert 1.46 < xs[imin] < 1.47
    assert np.all(np.diff(vals[: imin + 1]) < 0.0)
    assert np.all(np.diff(vals[imin:]) > 0.0)


def test_euler_mascheroni():
    g = specfun.euler_mascheroni()
    assert abs(g - float(mp.euler)) <= 1e-14
    assert 0.5 < g < 0.6
    assert math.exp(1.0 - g) == pytest.approx(EXP_ONE_MINUS_GAMMA, rel=1e-12)
    # digit string reported for the small-order limit of the blow-up bound
    assert math.exp(1.0 - g) == pytest.approx(1.52620511, abs=5e-9)


def test_log_gamma_consistency():
    for x in np.linspace(0.6, 3.0, 25):
        assert specfun.log_gamma(x) == pytest.approx(math.log(specfun.gamma(x)), abs=1e-12)
