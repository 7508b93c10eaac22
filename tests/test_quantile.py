"""Inf-convention empirical quantile contract, and the normal approximation's decision."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special
from scipy.stats import norm
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ulps
from ttpool.quantile import inf_quantile, normal_decision


def test_small_hand_cases():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    # ceil(0.5 * 4) = 2 -> second order statistic
    assert inf_quantile(v, 0.5) == 2.0
    # ceil(0.95 * 4) = 4 -> maximum
    assert inf_quantile(v, 0.95) == 4.0
    assert inf_quantile(v, 0.25) == 1.0


def test_single_value():
    assert inf_quantile(np.array([7.0]), 0.95) == 7.0


def test_empty_rejected():
    with pytest.raises(ValueError):
        inf_quantile(np.array([]), 0.5)


def test_order_insensitive():
    v = np.array([3.0, 1.0, 2.0])
    assert inf_quantile(v, 0.9) == inf_quantile(np.sort(v), 0.9)


@given(
    values=st.lists(st.floats(-100, 100), min_size=1, max_size=60),
    level=st.floats(0.01, 0.99),
)
@settings(max_examples=200, deadline=None)
def test_inf_convention_contract(values, level):
    v = np.array(values)
    q = inf_quantile(v, level)
    # Returned value is a realized reference value.
    assert q in v
    # Empirical CDF at q reaches the level.
    assert (v <= q).mean() >= level - 1e-12
    # It is the smallest realized value doing so.
    smaller = v[v < q]
    if smaller.size:
        assert (v <= smaller.max()).mean() < level


def _ndtri_cases():
    rng = np.random.default_rng(17)
    return np.concatenate([
        rng.random(60_000),  # mostly the central branch, between exp(-2) and 1 - exp(-2)
        np.exp(-rng.uniform(2.0, 32.0, 20_000)),  # lower tail, x = sqrt(-2 log p) < 8
        np.exp(-rng.uniform(32.0, 745.0, 20_000)),  # lower tail, x >= 8
        -np.expm1(-rng.uniform(0.0, 36.0, 20_000)),  # upper tail, through 1 - p
        np.exp(-2.0) + np.linspace(-1e-6, 1e-6, 2001),  # the branch edges
        1.0 - np.exp(-2.0) + np.linspace(-1e-6, 1e-6, 2001),
        np.exp(-32.0) * np.linspace(0.99, 1.01, 2001),
        [0.0, 1.0, 5e-324, 0.5, np.nextafter(1.0, 0.0), 0.8, 0.9, 0.95, 0.975, 0.99],
    ])


def test_normal_critical_value_within_ulps_of_scipy():
    # The quantile is the standard library's, not SciPy's: the bits may
    # differ, by at most 6 ulps over these cases, so allow 8.
    p = _ndtri_cases()
    p = p[(p > 0.0) & (p < 1.0)]
    assert p.size >= 100_000 and (p < math.exp(-32.0)).sum() > 10_000
    got = np.array([normal_decision(0.0, 1.0, float(a))[0] for a in p])
    assert np.all(np.isfinite(got))
    assert ulps(got, -special.ndtri(p)).max() <= 8


def test_normal_decision_at_a_tiny_alpha():
    # 1 - 1e-20 rounds to 1; the quantile is taken at alpha, so the critical
    # value stays finite and p <= alpha rejects.
    assert normal_decision(1.0, 0.0, 1e-20) == (0.0, 0.0, True)
    critical, p_value, reject = normal_decision(9.3, 1.0, 1e-20)
    assert critical == pytest.approx(9.26234, abs=1e-5)
    assert p_value == pytest.approx(7.0222e-21, rel=1e-4) and reject


def test_normal_decision_at_alpha_one_half_writes_positive_zero():
    critical = normal_decision(0.0, 1.0, 0.5)[0]
    assert critical == 0.0 and math.copysign(1.0, critical) == 1.0


def test_normal_decision_at_scale_zero():
    # A point mass at 0: p is 1 up to a statistic of 0 and 0 beyond, as the decision says.
    for alpha in (0.025, 0.05, 0.1):
        assert normal_decision(-1.0, 0.0, alpha) == (0.0, 1.0, False)
        assert normal_decision(0.0, 0.0, alpha) == (0.0, 1.0, False)
        assert normal_decision(1e-300, 0.0, alpha) == (0.0, 0.0, True)


@pytest.mark.parametrize("scale", [1e-3, 0.7, 1.0, 25.0])
@pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05, 0.1, 0.2])
def test_normal_decision_p_value_at_the_critical_value(alpha, scale):
    want = -NormalDist().inv_cdf(alpha) * scale
    critical, p_value, reject = normal_decision(want, scale, alpha)
    assert critical == want
    assert ulps(critical, norm.ppf(1.0 - alpha) * scale) <= 8
    assert abs(p_value - alpha) <= 1e-12
    assert not reject
    for factor, rejects in ((0.9, False), (1.1, True)):
        _, p_value, reject = normal_decision(factor * critical, scale, alpha)
        assert reject is rejects and (p_value <= alpha) is rejects
