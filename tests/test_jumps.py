import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdspool.jumps import BveParams, mgf_bve, mgf_bve_partials, mgf_exp, sample_bve


def test_mgf_exp_values():
    assert mgf_exp(0.0, 2.0) == 1.0
    assert mgf_exp(-1.0, 2.0) == pytest.approx(2.0 / 3.0)


def test_mgf_exp_against_mc():
    rng = np.random.default_rng(123)
    draws = np.exp(-0.5 * rng.standard_exponential(1_000_000) / 1.5)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(mgf_exp(-0.5, 1.5) - draws.mean()) < 3 * se


def test_mgf_exp_domain():
    with pytest.raises(ValueError):
        mgf_exp(0.1, 2.0)
    # a NaN theta compares false with 0 either way; it must still be rejected
    p = BveParams(1.5, 1.5, 0.5)
    for f in (lambda th: mgf_exp(th, 2.0), lambda th: mgf_bve(-0.1, th, p),
              lambda th: mgf_bve_partials(th, -0.1, p)):
        for th in (math.nan, np.array([-1.0, math.nan]), math.inf):
            with pytest.raises(ValueError, match="theta must be <= 0"):
                f(th)
    with pytest.raises(ValueError):
        mgf_exp(-1.0, 0.0)


def test_mgf_bve_at_origin():
    assert mgf_bve(0.0, 0.0, BveParams(1.5, 1.5, 0.5)) == 1.0


def test_mgf_bve_independent_marginal():
    # no common shock: marginal MGF of an Exp(1.5) size
    p = BveParams(1.5, 1.5, 0.0)
    assert mgf_bve(-1.0, 0.0, p) == pytest.approx(1.5 / 2.5)
    assert mgf_bve(-1.0, 0.0, p) == pytest.approx(mgf_exp(-1.0, 1.5))


def test_mgf_bve_marginal_identity_on_grid():
    p = BveParams(1.2, 0.8, 0.5)
    for theta in np.linspace(-5.0, 0.0, 11):
        expected = p.marginal_rate_a / (p.marginal_rate_a - theta)
        assert mgf_bve(theta, 0.0, p) == pytest.approx(expected, rel=1e-14)
        expected_b = p.marginal_rate_b / (p.marginal_rate_b - theta)
        assert mgf_bve(0.0, theta, p) == pytest.approx(expected_b, rel=1e-14)


def test_mgf_bve_against_sampler_mc():
    p = BveParams(1.5, 1.5, 0.5)
    rng = np.random.default_rng(77)
    ya, yb = sample_bve(p, rng, size=1_000_000)
    vals = np.exp(-0.7 * ya - 0.3 * yb)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(mgf_bve(-0.7, -0.3, p) - vals.mean()) < 3 * se


def test_partials_at_origin_are_means():
    p = BveParams(2.0, 1.0, 0.0)
    da, db = mgf_bve_partials(0.0, 0.0, p)
    assert da == pytest.approx(0.5)
    assert db == pytest.approx(1.0)


def test_partials_independence_factorization():
    p = BveParams(1.5, 2.5, 0.0)
    da, _ = mgf_bve_partials(-1.0, 0.0, p)
    assert da == pytest.approx(1.5 / (1.5 + 1.0) ** 2)


@given(ta=st.floats(min_value=-3.0, max_value=-0.01),
       tb=st.floats(min_value=-3.0, max_value=-0.01))
@settings(max_examples=50, deadline=None)
def test_partials_match_finite_differences(ta, tb):
    p = BveParams(1.5, 1.5, 0.5)
    h = 1e-6
    da, db = mgf_bve_partials(ta, tb, p)
    fd_a = (mgf_bve(ta + h, tb, p) - mgf_bve(ta - h, tb, p)) / (2 * h)
    fd_b = (mgf_bve(ta, tb + h, p) - mgf_bve(ta, tb - h, p)) / (2 * h)
    assert da == pytest.approx(fd_a, rel=1e-6)
    assert db == pytest.approx(fd_b, rel=1e-6)


@given(ta=st.floats(min_value=-4.0, max_value=0.0),
       tb=st.floats(min_value=-4.0, max_value=0.0))
@settings(max_examples=50, deadline=None)
def test_mgf_in_unit_interval_and_partials_positive(ta, tb):
    p = BveParams(0.9, 1.7, 0.4)
    val = mgf_bve(ta, tb, p)
    assert 0.0 < val <= 1.0
    da, db = mgf_bve_partials(ta, tb, p)
    assert da > 0.0 and db > 0.0


def test_mgf_nondecreasing_in_each_argument():
    p = BveParams(1.5, 1.5, 0.5)
    grid = np.linspace(-4.0, 0.0, 41)
    along_a = mgf_bve(grid, -1.0, p)
    along_b = mgf_bve(-1.0, grid, p)
    assert np.all(np.diff(along_a) > 0.0)
    assert np.all(np.diff(along_b) > 0.0)


def test_sampler_independent_when_no_common_shock():
    rng = np.random.default_rng(5)
    ya, yb = sample_bve(BveParams(1.5, 1.5, 0.0), rng, size=1_000_000)
    corr = np.corrcoef(ya, yb)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(len(ya))


def test_sampler_moments():
    p = BveParams(1.5, 1.5, 0.5)
    rng = np.random.default_rng(6)
    n = 1_000_000
    ya, yb = sample_bve(p, rng, size=n)
    for y in (ya, yb):
        se = y.std(ddof=1) / math.sqrt(n)
        assert abs(y.mean() - 0.5) < 3 * se
    corr = np.corrcoef(ya, yb)[0, 1]
    se_corr = (1 - corr**2) / math.sqrt(n)
    assert abs(corr - 0.5 / 3.5) < 3 * se_corr


def test_sampler_comonotone_degenerate_limit():
    rng = np.random.default_rng(7)
    ya, yb = sample_bve(BveParams(0.0, 0.0, 2.0), rng, size=10_000)
    np.testing.assert_array_equal(ya, yb)


def test_empirical_mgf_matches_formula_on_grid():
    p = BveParams(1.5, 1.5, 0.5)
    rng = np.random.default_rng(8)
    ya, yb = sample_bve(p, rng, size=1_000_000)
    for ta, tb in ((-0.2, -0.2), (-1.0, -0.1), (-0.1, -1.0), (-0.5, -1.5), (-2.0, -2.0)):
        vals = np.exp(ta * ya + tb * yb)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(mgf_bve(ta, tb, p) - vals.mean()) < 4 * se


def test_degenerate_mgf_matches_comonotone_law():
    # gamma_a = gamma_b = 0: the pair is one shared Exp(gamma_ab) draw
    p = BveParams(0.0, 0.0, 2.0)
    assert mgf_bve(-0.7, -0.4, p) == pytest.approx(2.0 / (2.0 + 1.1))


def test_params_validation():
    with pytest.raises(ValueError):
        BveParams(-0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        BveParams(0.0, 1.0, 0.0)  # marginal rate of side a is zero
    p = BveParams(1.0, 2.0, 0.5)
    assert p.gamma0 == 3.5
    assert p.correlation == pytest.approx(0.5 / 3.5)
