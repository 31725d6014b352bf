"""Every public closed form of ``riccati``, ``jumps``, ``exposure`` and
``kernels`` either returns finite values or raises a clean error, whatever
numbers it is fed: finite values, NaN, +-inf and the edges of each domain.
So do the Euler engine ``_euler_blocks`` (its pool's jump law included),
the exact engine ``exact_book_values`` and the limit oracle
``mc_limit_transform`` in their numeric arguments, with numpy warnings
raised as errors.

``survival_exponents`` takes special values in its lag only, since it
documents its rate and jump parameters as unvalidated. Kernel lags and
exposure and ``bcva`` maturities stay below 30 years when finite: the panel
count grows with them. The Euler engine keeps horizons and steps to at most
2,000 steps. The pricing functions' risk-free rate (``exposure_limit``,
``bcva``, ``exact_book_values``) takes any float, so a rate far below 0
meets the shared discount-factor check. The limit oracle's lag reaches far
past its cap, 1000 / kappa.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdspool.errors import AccuracyError, ConfigError
from cdspool.exposure import exposure_limit, limit_exp_test, survival_fhat
from cdspool.harness import _validation_baseline
from cdspool.jumps import BveParams, mgf_bve, mgf_bve_partials, mgf_exp
from cdspool.kernels import bcva, joint_survival, kernel, kernel_coefficients
from cdspool.quadrature import gauss_legendre_panels
from cdspool.riccati import (exp_phi, integral_b, integral_beta, integral_exp_phi,
                             riccati_b, riccati_beta, riccati_beta_general,
                             survival_exponents, varpi)
from cdspool.simulation import NameParams, Pool, exact_book_values, mc_limit_transform

from euler_paths import stored_paths

CLEAN_ERRORS = (ValueError, ConfigError, AccuracyError, ArithmeticError)
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0)


def number(lo: float, hi: float):
    """A finite float in [lo, hi], or one of the special values."""

    return st.one_of(st.floats(lo, hi), st.sampled_from(SPECIAL))


rate, lag, short_lag = number(1e-3, 1e3), number(0.0, 1e3), number(0.0, 30.0)
theta, level = number(-1e3, 0.0), number(-10.0, 10.0)
# a risk-free rate: moderate values, where the discount factor overflows
# over 30 years below -23.7, or any finite float
any_rate = st.one_of(number(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
JUMPY_CFG, CFG, CPS = _validation_baseline()
NAME = NameParams(alpha=0.01, kappa=0.5, sigma=0.2, c=0.2, d=0.2, lambda_hat=0.5,
                  xi0=0.02, spread=0.02, loss=0.4)

CASES = {
    "varpi": (varpi, (rate, rate)),
    "riccati_b": (riccati_b, (rate, rate, lag)),
    "integral_b": (integral_b, (rate, rate, lag)),
    "exp_phi": (exp_phi, (rate, rate, lag)),
    "integral_exp_phi": (integral_exp_phi, (rate, rate, lag)),
    "riccati_beta": (riccati_beta, (rate, rate, level, lag)),
    "integral_beta": (integral_beta, (rate, rate, level, lag)),
    "riccati_beta_general": (riccati_beta_general, (rate, rate, rate, level, lag)),
    "survival_exponents": (
        lambda k, s, a, u: survival_exponents(k, s, a, [(0.5, 0.2, 1.5)], u),
        (st.floats(1e-3, 1e3), st.floats(0.0, 1e3), st.floats(0.0, 10.0), lag)),
    "mgf_exp": (mgf_exp, (theta, rate)),
    "mgf_bve": (lambda ta, tb, *g: mgf_bve(ta, tb, BveParams(*g)),
                (theta, theta, rate, rate, rate)),
    "mgf_bve_partials": (lambda ta, tb, *g: mgf_bve_partials(ta, tb, BveParams(*g)),
                         (theta, theta, rate, rate, rate)),
    "kernel_coefficients": (
        lambda u, lam, side: kernel_coefficients(u, CPS, lam, side),
        (short_lag, number(0.0, 10.0), st.sampled_from("AB"))),
    "kernel": (lambda u, xa, xb, lam, side: kernel(u, xa, xb, CPS, lam, side),
               (short_lag, number(0.0, 10.0), number(0.0, 10.0), number(0.0, 10.0),
                st.sampled_from("AB"))),
    "joint_survival": (lambda u, xa, xb, lam: joint_survival(u, xa, xb, CPS, lam),
                       (short_lag, number(0.0, 10.0), number(0.0, 10.0),
                        number(0.0, 10.0))),
    "bcva": (lambda t, r: bcva(t, dataclasses.replace(CFG, r=r), CPS),
             (short_lag, any_rate)),
    "survival_fhat": (lambda u: survival_fhat(u, JUMPY_CFG), (lag,)),
    "limit_exp_test": (lambda th, t: limit_exp_test(th, t, JUMPY_CFG), (theta, lag)),
    "exposure_limit": (lambda t, maturity, r: exposure_limit(
        t, maturity, dataclasses.replace(JUMPY_CFG, r=r)), (short_lag, short_lag, any_rate)),
}


def _values(out):
    if dataclasses.is_dataclass(out):
        return dataclasses.astuple(out)
    if isinstance(out, dict):
        return tuple(out.values())
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_form_is_finite_or_raises_cleanly(name, data):
    f, strategies = CASES[name]
    args = [data.draw(s) for s in strategies]
    try:
        out = f(*args)
    except CLEAN_ERRORS:
        return
    assert all(np.all(np.isfinite(v)) for v in _values(out)), (name, args, out)


# the Euler engine's numeric arguments and its pool's jump law, through the
# tests' path store: a valid run, of which the test changes one argument;
# steps and sample times are drawn on the grid too
JUMP_LAW = ("lambda_c", "gamma1", "gamma2")
SIM_BASE = dict(lambda_c=0.5, gamma1=1.5, gamma2=1.5, horizon=1.0, n_paths=3, seed=1,
                dt=None, sample_times=None)
on_grid = st.integers(0, 1000).map(lambda i: i / 1000)
SIM_ARGS = {
    "lambda_c": number(0.0, 10.0), "gamma1": rate, "gamma2": rate,
    "horizon": number(0.0, 2.0),
    "dt": st.one_of(number(1e-3, 1.0), st.integers(1, 2000).map(lambda n: 1.0 / n)),
    "n_paths": st.integers(-1, 5), "seed": st.integers(-1, 2**64),
    "sample_times": st.lists(st.one_of(number(-1.0, 2.0), on_grid), max_size=3),
}


@pytest.mark.parametrize("arg", sorted(SIM_ARGS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_simulate_paths_is_finite_or_raises_cleanly(arg, data):
    kw = dict(SIM_BASE, **{arg: data.draw(SIM_ARGS[arg])})
    law = {k: kw.pop(k) for k in JUMP_LAW}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ps = stored_paths(Pool([NAME], **law), CPS, **kw)
        except CLEAN_ERRORS:
            return
    assert np.all(np.isfinite(ps.intensities)) and np.all(ps.intensities >= 0.0), (law, kw)
    assert np.all(np.isfinite(ps.thresholds)) and np.all(ps.thresholds > 0.0), (law, kw)
    assert np.all(np.isfinite(ps.integrated)) and np.all(ps.integrated >= 0.0), (law, kw)


# exact_book_values' numeric arguments, on a one-name jump pool and a few paths
EXACT_BASE = dict(sample_times=[0.0, 0.5], maturity=1.0, r=0.03, n_paths=3, seed=1)
EXACT_ARGS = {
    "r": any_rate, "maturity": short_lag,
    "n_paths": st.integers(-1, 5), "seed": st.integers(-1, 2**64),
}


@pytest.mark.parametrize("arg", sorted(EXACT_ARGS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_exact_book_values_is_finite_or_raises_cleanly(arg, data):
    kw = dict(EXACT_BASE, **{arg: data.draw(EXACT_ARGS[arg])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = exact_book_values(Pool([NAME], 0.5, 1.5, 1.5), **kw)
        except CLEAN_ERRORS:
            return
    assert values.shape == (2, kw["n_paths"]) and np.all(np.isfinite(values)), kw


@pytest.mark.parametrize("lambda_c, lambda_hat", [(1e16, 0.5), (0.5, 4e15)])
def test_exact_book_values_rejects_an_oversized_poisson_mean(lambda_c, lambda_hat):
    # checked before the first allocation, as the Euler engine checks it
    pool = Pool([dataclasses.replace(NAME, lambda_hat=lambda_hat)], lambda_c, 1.5, 1.5)
    with pytest.raises(ConfigError, match="Poisson mean"):
        exact_book_values(pool, **EXACT_BASE)


@pytest.mark.parametrize("v", [1e300, [0.5, 1e300], math.inf, math.nan])
def test_gauss_legendre_panels_reject_a_panel_count_past_an_array(v):
    # raised on the first panel, before the panel offsets are allocated
    with pytest.raises(ConfigError, match="quadrature panels"):
        next(gauss_legendre_panels(v))


@settings(max_examples=20, deadline=None)
@given(u=st.one_of(lag, number(0.0, 1e300)), n_paths=st.integers(-1, 5),
       seed=st.integers(-1, 2**64))
def test_mc_limit_transform_is_finite_or_raises_cleanly(u, n_paths, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            est, se = mc_limit_transform(u, JUMPY_CFG, n_paths, seed)
        except CLEAN_ERRORS:
            return
    assert 0.0 <= est <= 1.0 and se >= 0.0, (u, n_paths, seed, est, se)
