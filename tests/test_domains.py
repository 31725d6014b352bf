"""Every public closed form of ``riccati``, ``jumps`` and ``kernels`` either
returns finite values or raises a clean error, whatever numbers it is fed:
finite values, NaN, +-inf and the edges of each domain.

``survival_exponents`` takes special values in its lag only, since it
documents its rate and jump parameters as unvalidated. Kernel lags and
maturities stay below 30 years when finite: the panel count grows with them.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdspool.errors import AccuracyError, ConfigError
from cdspool.harness import _validation_baseline
from cdspool.jumps import BveParams, mgf_bve, mgf_bve_partials, mgf_exp
from cdspool.kernels import bcva, joint_survival, kernel, kernel_coefficients
from cdspool.riccati import (exp_phi, integral_b, integral_beta, integral_exp_phi,
                             riccati_b, riccati_beta, riccati_beta_general,
                             survival_exponents, varpi)

CLEAN_ERRORS = (ValueError, ConfigError, AccuracyError, ArithmeticError)
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0)


def number(lo: float, hi: float):
    """A finite float in [lo, hi], or one of the special values."""

    return st.one_of(st.floats(lo, hi), st.sampled_from(SPECIAL))


rate, lag, short_lag = number(1e-3, 1e3), number(0.0, 1e3), number(0.0, 30.0)
theta, level = number(-1e3, 0.0), number(-10.0, 10.0)
_, CFG, CPS = _validation_baseline()

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
    "bcva": (lambda t: bcva(t, CFG, CPS), (short_lag,)),
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
