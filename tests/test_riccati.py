import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import cumulative_simpson, quad

from cdspool import harness
from cdspool.riccati import (exp_phi, integral_b, integral_beta, integral_exp_phi,
                             riccati_b, riccati_beta, riccati_beta_general, rk4_riccati,
                             survival_exponents, varpi)

from oracles import riccati_rhs, rk4_solve

rates = st.floats(min_value=0.1, max_value=3.0)


def test_riccati_b_initial_condition():
    assert riccati_b(0.5, 0.3, 0.0) == 0.0


def test_riccati_b_matches_rk4_oracle():
    # RK4, step 1e-4: -0.777859547832318
    assert riccati_b(0.5, 0.3, 1.0) == pytest.approx(-0.777859547832318, abs=1e-8)


def test_riccati_b_long_horizon_limit():
    w = varpi(0.5, 0.3)
    assert riccati_b(0.5, 0.3, 1e6) == pytest.approx(-2.0 / (0.5 + w), rel=1e-12)
    # and no overflow far beyond any pricing horizon
    assert np.isfinite(riccati_b(0.5, 0.3, 1e9))


def test_integral_b_empty():
    assert integral_b(1.1, 0.7, 0.0) == 0.0


def test_integral_b_matches_simpson_oracle():
    # composite Simpson of riccati_b, 1e4 panels: -2.797049633929372
    assert integral_b(0.5, 0.3, 3.0) == pytest.approx(-2.797049633929372, abs=1e-8)


def test_integral_b_phi_identity():
    # integral recovered from the integrating factor: (log exp_phi + kappa u) / sigma^2
    k, s, u = 1.5, 0.2, 5.0
    ident = (math.log(exp_phi(k, s, u)) + k * u) / s**2
    assert integral_b(k, s, u) == pytest.approx(ident, abs=1e-8)


@given(kappa=rates, sigma=rates)
@settings(max_examples=40, deadline=None)
def test_riccati_b_range_and_monotonicity(kappa, sigma):
    u = np.linspace(0.0, 10.0, 201)
    b = riccati_b(kappa, sigma, u)
    lower = -2.0 / (kappa + varpi(kappa, sigma))
    assert np.all(b <= 0.0)
    # open bound and strict decrease hold up to ulp jitter once the decay
    # saturates in double precision
    eps = 4 * np.finfo(float).eps * abs(lower)
    assert np.all(b >= lower - eps)
    assert np.all(np.diff(b) <= eps)
    assert np.all(np.diff(b[:20]) < 0.0)


@given(kappa=rates, sigma=rates, u=st.floats(min_value=0.05, max_value=9.0))
@settings(max_examples=40, deadline=None)
def test_integral_b_derivative_is_b(kappa, sigma, u):
    h = 1e-5
    fd = (integral_b(kappa, sigma, u + h) - integral_b(kappa, sigma, u - h)) / (2 * h)
    assert fd == pytest.approx(riccati_b(kappa, sigma, u), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("sigma", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-160])
def test_integral_b_small_sigma_matches_quadrature(sigma):
    # varpi - kappa and varpi^2 - kappa^2 cancel as sigma / kappa -> 0;
    # the closed form must not
    oracle, _ = quad(lambda v: riccati_b(0.8, sigma, v), 0.0, 2.0,
                     epsabs=0.0, epsrel=1e-13)
    assert integral_b(0.8, sigma, 2.0) == pytest.approx(oracle, rel=1e-10)


def _jump_integral(kappa, sigma, ell, gamma, u):
    """J(ell, gamma; u) alone: one unit-rate jump layer, no drift."""
    return survival_exponents(kappa, sigma, 0.0, [(1.0, ell, gamma)], u)[0]


def _p_zero_loading(kappa, sigma, gamma):
    """The loading ell at which P = gamma (varpi - kappa) - 2 ell is zero."""
    return gamma * (varpi(kappa, sigma) - kappa) / 2.0


@pytest.mark.parametrize("kappa, sigma, ell, gamma", [
    (0.5, 0.2, 0.2, 1.5), (0.8, 1e-8, 0.3, 2.0), (1.2, 0.9, 1.5, 0.7),
    (0.5, 0.2, 0.0, 1.5),
    (0.6, 0.5, _p_zero_loading(0.6, 0.5, 1.5) * (1 + 1e-9), 1.5),
    (0.6, 0.5, _p_zero_loading(0.6, 0.5, 1.5) * (1 - 1e-9), 1.5),
])
def test_jump_integral_matches_simpson_and_rk4(kappa, sigma, ell, gamma):
    u = np.linspace(0.0, 12.0, 4801)
    integrand = gamma / (gamma - ell * riccati_b(kappa, sigma, u)) - 1.0
    simpson = cumulative_simpson(integrand, x=u, initial=0.0)
    closed = _jump_integral(kappa, sigma, ell, gamma, u)
    # odd nodes carry the weaker single-panel closure; compare on even ones
    np.testing.assert_allclose(closed[::2], simpson[::2], rtol=0.0, atol=1e-10)

    def rhs(y):
        return np.array([-kappa * y[0] + 0.5 * sigma * sigma * y[0] ** 2 - 1.0,
                         gamma / (gamma - ell * y[0]) - 1.0])

    for horizon in (0.3, 3.0, 12.0):
        b, j = rk4_solve(rhs, np.zeros(2), horizon, 1e-3)
        closed_j = _jump_integral(kappa, sigma, ell, gamma, horizon)
        assert closed_j == pytest.approx(j, abs=1e-10)


def test_jump_integral_exact_p_zero_takes_the_limit():
    kappa, sigma, gamma = 0.6, 0.5, 1.5
    s2 = sigma * sigma
    # the same float operations as the closed form, so P is exactly 0.0
    ell = gamma * s2 / (np.sqrt(kappa * kappa + 2.0 * s2) + kappa)
    u = np.array([0.0, 0.5, 4.0])
    at = _jump_integral(kappa, sigma, ell, gamma, u)
    assert np.all(np.isfinite(at)) and at[0] == 0.0
    for nudge in (1 + 1e-9, 1 - 1e-9):
        np.testing.assert_allclose(at, _jump_integral(kappa, sigma, ell * nudge, gamma, u),
                                   rtol=1e-8)


def test_survival_exponents_broadcast_and_reduce():
    kappa = np.array([0.5, 0.9, 1.4])
    sigma = np.array([0.2, 1e-8, 0.7])
    alpha = np.array([0.01, 0.3, 0.0])
    u = np.linspace(0.0, 5.0, 11)[:, None]
    a, b = survival_exponents(kappa, sigma, alpha, [(2.5, np.zeros(3), 1.5)], u)
    assert a.shape == b.shape == (11, 3)
    for k in range(3):
        np.testing.assert_array_equal(b[:, k], riccati_b(kappa[k], sigma[k], u[:, 0]))
        ib = integral_b(kappa[k], sigma[k], u[:, 0])
        np.testing.assert_allclose(a[:, k], alpha[k] * ib, rtol=1e-14, atol=0.0)
    # sigma = 0: deterministic decay, IB = -u / kappa + (1 - e^{-kappa u}) / kappa^2
    a0, b0 = survival_exponents(0.8, 0.0, 1.0, [], u[:, 0])
    np.testing.assert_allclose(b0, np.expm1(-0.8 * u[:, 0]) / 0.8, rtol=1e-15)
    np.testing.assert_allclose(a0, -u[:, 0] / 0.8 - np.expm1(-0.8 * u[:, 0]) / 0.64,
                               rtol=1e-13)


def test_riccati_beta_initial_condition():
    assert riccati_beta(0.6, 0.3, -0.1, 0.0) == pytest.approx(-0.1, abs=0.0)


def test_riccati_beta_matches_rk4_oracle():
    # RK4, step 1e-4: -1.153994757603390
    assert riccati_beta(0.6, 0.3, -0.1, 2.0) == pytest.approx(-1.153994757603390, abs=1e-8)


def test_riccati_beta_continuous_at_zero_initial():
    b_near = riccati_beta(0.6, 0.3, -1e-12, 2.0)
    assert b_near == pytest.approx(riccati_b(0.6, 0.3, 2.0), abs=1e-6)


@given(kappa=rates, sigma=rates, b0=st.floats(min_value=-2.0, max_value=-0.01),
       s=st.floats(min_value=0.1, max_value=2.0), t=st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_beta_flow_property(kappa, sigma, b0, s, t):
    hop = riccati_beta(kappa, sigma, riccati_beta(kappa, sigma, b0, s), t)
    assert hop == pytest.approx(riccati_beta(kappa, sigma, b0, s + t), abs=1e-8)


def test_riccati_beta_general_unit_weight_reduces_to_beta():
    u = np.linspace(0.0, 4.0, 9)
    np.testing.assert_array_equal(riccati_beta_general(0.7, 0.4, 1.0, -0.3, u),
                                  riccati_beta(0.7, 0.4, -0.3, u))


def test_riccati_beta_general_zero_initial_reduces_to_b():
    assert riccati_beta_general(0.6, 0.3, 1.0, 0.0, 1.0) == riccati_b(0.6, 0.3, 1.0)


def test_riccati_beta_general_subnormal_initial_reduces_to_b():
    # -5e-324 / 2 rounds to zero; the rescaled value must take the b0 = 0 path
    u = np.linspace(0.0, 3.0, 7)
    np.testing.assert_array_equal(riccati_beta_general(1.0, 1.0, 2.0, -5e-324, u),
                                  2.0 * riccati_b(1.0, np.sqrt(2.0), u))


def test_riccati_beta_general_matches_rk4_oracle():
    # RK4, step 1e-4: -1.966343226874024
    assert riccati_beta_general(0.6, 0.3, 2.0, -0.2, 1.5) == pytest.approx(
        -1.966343226874024, abs=1e-8)


@given(kappa=rates, sigma=rates, a=st.floats(min_value=0.1, max_value=3.0),
       b0=st.floats(min_value=-2.0, max_value=0.0))
@settings(max_examples=40, deadline=None)
def test_riccati_beta_general_stays_nonpositive(kappa, sigma, a, b0):
    u = np.linspace(0.0, 10.0, 101)
    assert np.all(riccati_beta_general(kappa, sigma, a, b0, u) <= 0.0)


def test_closed_forms_match_rk4_on_random_draws():
    rng = np.random.default_rng(12)
    for _ in range(10):
        kappa, sigma = rng.uniform(0.1, 3.0, 2)
        b0 = -rng.uniform(0.01, 1.5)
        for u in (0.3, 2.0, 10.0):
            assert riccati_b(kappa, sigma, u) == pytest.approx(
                rk4_solve(riccati_rhs(kappa, sigma), 0.0, u, 1e-3), abs=1e-8)
            assert riccati_beta(kappa, sigma, b0, u) == pytest.approx(
                rk4_solve(riccati_rhs(kappa, sigma), b0, u, 1e-3), abs=1e-8)


def test_integral_beta_matches_quadrature():
    from cdspool.quadrature import composite_simpson
    k, s, b0 = 0.8, 0.5, -0.4
    for u in (0.5, 2.0, 6.0):
        oracle = composite_simpson(lambda v: riccati_beta(k, s, b0, v), 0.0, u, 4000)
        assert integral_beta(k, s, b0, u) == pytest.approx(oracle, abs=1e-8)


def test_rk4_linear_ode():
    assert rk4_solve(lambda y: -y, 1.0, 1.0, 1e-4) == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_rk4_constant_solution():
    assert rk4_solve(lambda y: 0.0 * y, 3.7, 11.0, 0.1) == 3.7


def test_rk4_scalar_steps_equal_one_array_call():
    # the scalar loop runs on Python floats; IEEE arithmetic makes each
    # result bit-equal to its element of an array-valued solve
    kappa = np.array([0.3, 1.1, 2.7, 0.8])
    sigma = np.array([0.2, 1.9, 0.6, 3.0])
    y0 = np.array([0.0, -0.4, -1.7, -0.05])
    for u in (0.37, 2.0, 5.5):
        batch = rk4_solve(riccati_rhs(kappa, sigma), y0, u, 1e-3)
        for i in range(len(y0)):
            scalar = rk4_solve(riccati_rhs(kappa[i], sigma[i]), y0[i], u, 1e-3)
            assert type(scalar) is float
            assert scalar == batch[i]


def _vector_solve(kappa, sigma, a_ell, y0, u, step):
    """RK4 on the 2-vector (rhs(y), y) from (y0, 0): y(u) and its integral."""

    rhs = riccati_rhs(kappa, sigma, a_ell)
    return tuple(rk4_solve(lambda y: np.array([rhs(y[0]), y[0]]), [y0, 0.0], u, step))


def test_rk4_integral_pair_equals_the_vector_solve():
    # two Python floats, bit-equal to RK4 on the 2-vector (rhs(y), y), and
    # on target against the closed forms
    for u in (0.0, 0.37, 2.0):
        ((b, ib),) = rk4_riccati(1.5, 0.2, 1.0, 0.0, (u,), 1e-3)
        assert type(b) is float and type(ib) is float
        assert (b, ib) == _vector_solve(1.5, 0.2, 1.0, 0.0, u, 1e-3)
        assert ib == pytest.approx(integral_b(1.5, 0.2, u), abs=1e-12)
    # one run serves every lag on a shared step, from any start and weight
    lags = (0.0, 0.25, 0.25, 1.0, 3.0)
    runs = rk4_riccati(0.7, 1.3, 2.5, -0.4, lags, 1e-3)
    assert runs == [_vector_solve(0.7, 1.3, 2.5, -0.4, u, 1e-3) for u in lags]
    assert runs[-1][1] == pytest.approx(integral_beta(0.7, 1.3 * math.sqrt(2.5), -0.16, 3.0)
                                        * 2.5, abs=1e-10)


def _gate_draws():
    """(kappa, sigma, a_ell, y0, lags, step) of every run the gate's three
    riccati_*_vs_rk4 checks make, drawn as the gate draws them."""

    rng = np.random.default_rng(harness.VALIDATION_SEED)
    for _ in range(10):
        k, s = rng.uniform(0.1, 3.0, 2)
        yield k, s, 1.0, 0.0, (0.5, 2.0, 7.0), 2e-4
    rng = np.random.default_rng(harness.VALIDATION_SEED + 1)
    for _ in range(8):
        k, s = rng.uniform(0.1, 3.0, 2)
        b0 = -rng.uniform(0.01, 2.0)
        for u in (0.7, 3.0):
            yield k, s, 1.0, b0, (u,), 2e-4
    rng = np.random.default_rng(harness.VALIDATION_SEED + 2)
    for _ in range(8):
        k, s = rng.uniform(0.1, 3.0, 2)
        a = rng.uniform(0.3, 3.0)
        b0 = -rng.uniform(0.0, 1.0)
        yield k, s, a, b0, (1.5,), 2e-4


def test_rk4_riccati_equals_the_generic_oracle_at_every_gate_run():
    # bit-equal to one generic RK4 run per lag, at every draw and lag the gate
    # checks; the gate's oracle values are these runs, as before
    gate_oracle = []
    for kappa, sigma, a_ell, y0, lags, step in _gate_draws():
        for u, (y, _) in zip(lags, rk4_riccati(kappa, sigma, a_ell, y0, lags, step)):
            assert y == rk4_solve(riccati_rhs(kappa, sigma, a_ell), y0, u, step)
            gate_oracle.append(y)
    # fhat_cir_reduction reads the integral too, through exp(x0 y + alpha iy)
    _, cfg, _ = harness._validation_baseline()
    lags = (0.5, 1.0, 2.0)
    for u, (y, iy) in zip(lags, rk4_riccati(cfg.kappa, cfg.sigma, 1.0, 0.0, lags, 1e-4)):
        assert (y, iy) == _vector_solve(cfg.kappa, cfg.sigma, 1.0, 0.0, u, 1e-4)
        gate_oracle.append(math.exp(cfg.x0 * y + cfg.alpha * iy))
    checks = (harness._check_riccati_b_rk4, harness._check_riccati_beta_rk4,
              harness._check_riccati_beta_general_rk4, harness._check_fhat_cir)
    assert [oracle for check in checks for _, oracle, _ in check()] == gate_oracle


@pytest.mark.parametrize("lags, step", [
    ((math.nan,), 1e-3), ((math.inf,), 1e-3), ((-math.inf,), 1e-3), ((-1.0,), 1e-3),
    ((0.5, math.nan), 1e-3), ((2.0, 0.5), 1e-3), ((0.7, 3.0), 2e-4),
    ((1.0,), 0.0), ((1.0,), -0.1), ((1.0,), math.nan), ((1.0,), math.inf),
])
def test_rk4_riccati_rejects_bad_lags_and_steps(lags, step):
    # 0.7 / 3500 and 3.0 / 15000 round to steps an ulp apart: no shared grid
    with pytest.raises(ValueError):
        rk4_riccati(1.5, 0.2, 1.0, 0.0, lags, step)


def test_rk4_hits_riccati_target():
    assert rk4_solve(riccati_rhs(0.5, 0.3), 0.0, 1.0, 1e-4) == pytest.approx(
        riccati_b(0.5, 0.3, 1.0), abs=1e-8)


def test_domain_errors():
    with pytest.raises(ValueError):
        riccati_b(0.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        riccati_b(0.5, -0.1, 1.0)
    with pytest.raises(ValueError):
        riccati_b(0.5, 0.3, -1.0)
    with pytest.raises(ValueError):
        riccati_beta(0.5, 0.3, 0.0, 1.0)
    with pytest.raises(ValueError):
        riccati_beta_general(0.5, 0.3, 0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        rk4_riccati(0.5, 0.3, 1.0, 0.0, (1.0,), -0.1)


@pytest.mark.parametrize("b0", [math.nan, math.inf, -math.inf])
def test_non_finite_b0_raises(b0):
    for f in (riccati_beta, integral_beta):
        with pytest.raises(ValueError, match="b0 must be finite and nonzero"):
            f(0.5, 0.3, b0, 1.0)


def test_nan_lag_raises():
    # NaN compares false with 0, so the check tests u >= 0, never u < 0
    for f in (riccati_b, integral_b, exp_phi, integral_exp_phi):
        for u in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="u must be"):
                f(0.5, 0.3, u)
    with pytest.raises(ValueError, match="u must be"):
        riccati_beta(0.5, 0.3, -1.0, math.nan)
    with pytest.raises(ValueError, match="u must be"):
        survival_exponents(0.5, 0.3, 0.1, [(1.0, 0.2, 1.5)], np.array([1.0, math.nan]))


def test_positive_initial_value_pole_raises():
    # 1/b0 < sigma^2/(kappa+varpi) guarantees a finite-time pole
    with pytest.raises(ArithmeticError):
        riccati_beta(0.5, 1.0, 100.0, 5.0)
