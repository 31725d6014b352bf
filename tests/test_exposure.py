import math
from pathlib import Path

import numpy as np
import pytest

from cdspool.cli import build_spec, parse_config
from cdspool.exposure import (LimitConfig, build_name_sequence, empirical_measure_eval,
                              exposure_limit, limit_exp_test, survival_fhat)
from cdspool.harness import grid_for_samples
from cdspool.riccati import rk4_riccati
from cdspool.simulation import simulate_paths

from oracles import simpson_adaptive


def make_cfg(**overrides):
    base = dict(alpha=0.01, kappa=0.5, sigma=0.3, c=0.1, d=0.1, lambda_hat=0.2,
                x0=0.02, gamma1=2.0, gamma2=2.0, lambda_c=0.25, s_z=0.02, l_z=0.4,
                r=0.03)
    base.update(overrides)
    return LimitConfig(**base)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_spec(stem):
    mapping = parse_config((CONFIGS / f"{stem}.cfg").read_text())
    kind = mapping["experiment.kind"]
    return build_spec(mapping, kind, 1 if kind == "convergence" else None, 1, None)


NOJUMP = dict(alpha=0.75, kappa=1.5, sigma=0.2, c=0.0, d=0.0, lambda_hat=0.5,
              x0=0.5, gamma1=1.5, gamma2=1.5, lambda_c=2.5, s_z=0.02, l_z=0.4,
              r=0.03)


def test_fhat_is_one_on_the_diagonal():
    assert survival_fhat(0.0, make_cfg()) == 1.0


def test_fhat_jump_free_equals_affine_transform():
    # independent route: Runge-Kutta on the coupled (exponent, integral) pair
    cfg = LimitConfig(**NOJUMP)
    lags = (0.25, 1.0, 3.0)
    for u, (b, ib) in zip(lags, rk4_riccati(cfg.kappa, cfg.sigma, 1.0, 0.0, lags, 1e-4)):
        assert survival_fhat(u, cfg) == pytest.approx(
            math.exp(cfg.x0 * b + cfg.alpha * ib), abs=1e-10)


def test_fhat_matches_limit_sde_mc():
    # frozen oracle: 1e5 Euler paths of the limit diffusion with random
    # drift marks, dt = 1.5e-3, seed 1234: 0.95213596 +- 1.26e-04
    closed = survival_fhat(1.5, make_cfg())
    assert closed == pytest.approx(0.95213596, rel=5e-3)
    assert abs(closed - 0.95213596) < 3 * 1.26e-4


def test_fhat_time_homogeneous_and_monotone():
    cfg = make_cfg()
    s = np.linspace(0.0, 5.0, 101)
    curve = survival_fhat(s, cfg)
    assert np.all(curve > 0.0) and np.all(curve <= 1.0)
    assert np.all(np.diff(curve) < 0.0)


def test_fhat_decreases_in_jump_loadings():
    base = survival_fhat(2.0, make_cfg())
    for bump in (dict(c=0.3), dict(d=0.3), dict(lambda_c=1.0), dict(lambda_hat=0.8)):
        assert survival_fhat(2.0, make_cfg(**bump)) < base


def test_exposure_limit_vanishes_at_maturity():
    assert exposure_limit(3.0, 3.0, make_cfg()) == 0.0
    assert exposure_limit(np.array([1.0, 3.0]), 3.0, make_cfg())[1] == 0.0
    short = exposure_limit(3.0, 3.0, make_cfg(s_z=-0.02, l_z=-0.4))
    assert short == 0.0 and math.copysign(1.0, short) == 1.0


def _fig1c_grid():
    spec = shipped_spec("fig1-c")
    return grid_for_samples(spec.horizon, spec.n_times, spec.dt)[1], spec.horizon


@pytest.mark.parametrize("grid", [
    _fig1c_grid(),
    # 25 years: the points cross the 10- and 20-year panel boundaries
    (np.concatenate([np.linspace(0.0, 25.0, 101),
                     [5.0 - 1e-9, 5.0, 5.0 + 1e-9, 15.0 - 1e-9, 15.0]]), 25.0),
], ids=["fig1-c", "25y"])
def test_exposure_limit_vector_call_equals_scalar_calls(grid):
    times, maturity = grid
    cfg = shipped_spec("fig1-c").limit
    curve = exposure_limit(times, maturity, cfg)
    assert curve.shape == times.shape
    assert np.all(curve == [exposure_limit(float(t), maturity, cfg) for t in times])
    assert curve[times == maturity].tolist() == [0.0]


@pytest.mark.parametrize("stem", ["fig1-a", "fig1-b", "fig1-c", "fig1-d", "fig2", "fig5"])
def test_exposure_limit_matches_tight_simpson_reference(stem):
    spec = shipped_spec(stem)
    cfg, maturity = spec.limit, spec.horizon
    times = np.linspace(0.0, maturity, 25)[:-1]
    curve = exposure_limit(times, maturity, cfg)
    for t, got in zip(times, curve):
        v = maturity - t
        integral = simpson_adaptive(
            lambda u: np.exp(-cfg.r * u) * survival_fhat(u, cfg), 0.0, v,
            rel_tol=1e-13)
        want = (cfg.l_z * (math.exp(-cfg.r * v) * survival_fhat(v, cfg) - 1.0)
                + (cfg.s_z + cfg.r * cfg.l_z) * integral)
        assert got == pytest.approx(want, abs=1e-13)


def test_exposure_limit_matches_fixed_panel_simpson():
    # frozen oracle: terminal term + 1e4-panel composite Simpson of the
    # discounted survival curve: -0.139418054998347
    cfg = LimitConfig(**NOJUMP)
    assert exposure_limit(0.0, 1.0, cfg) == pytest.approx(-0.139418054998347, abs=1e-7)


def test_exposure_limit_positive_without_loss_leg():
    cfg = make_cfg(l_z=0.0, s_z=0.05)
    assert exposure_limit(0.0, 3.0, cfg) > 0.0
    assert exposure_limit(2.9, 3.0, cfg) > 0.0


def test_exposure_limit_continuous_in_t():
    cfg = make_cfg()
    vals = [exposure_limit(t, 3.0, cfg) for t in (1.0, 1.001, 1.002)]
    assert abs(vals[1] - vals[0]) < 1e-4
    assert abs(vals[2] - vals[1]) < 1e-4


def test_limit_exp_test_initial_value():
    cfg = make_cfg()
    assert limit_exp_test(-0.5, 0.0, cfg) == pytest.approx(
        math.exp(-0.5 * cfg.x0), rel=1e-14)


def test_limit_exp_test_matches_mc():
    # frozen oracle: 1e5 paths, theta = -0.5, jump-free pool, seed 555:
    # 0.47391649 +- 1.21e-04
    cfg = LimitConfig(**NOJUMP)
    closed = limit_exp_test(-0.5, 1.0, cfg)
    assert abs(closed - 0.47391649) < 3 * 1.21e-4


@pytest.mark.parametrize("theta", [-1.0, -0.3, 0.0])
def test_limit_exp_test_vector_call_equals_scalar_calls(theta):
    cfg = make_cfg()
    t = np.linspace(0.0, 3.0, 13)
    vec = limit_exp_test(theta, t, cfg)
    assert np.all(vec == np.array([limit_exp_test(theta, float(ti), cfg) for ti in t]))
    if theta == 0.0:
        assert np.all(vec == survival_fhat(t, cfg))


def test_limit_exp_test_domain():
    cfg = make_cfg()
    for theta, t in ((0.1, 1.0), (math.nan, 1.0), (-0.5, -1.0), (-0.5, math.nan)):
        with pytest.raises(ValueError):
            limit_exp_test(theta, t, cfg)
    for u in (-1.0, math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError):
            survival_fhat(u, cfg)


def test_exposure_limit_domain():
    cfg = make_cfg()
    # an infinite t or maturity used to end in an OverflowError from the panel count
    for t, maturity in ((math.nan, 1.0), (0.5, math.nan), ([0.5, math.nan], 1.0),
                        (1.5, 1.0), (0.0, math.inf), (-math.inf, 1.0),
                        ([0.5, -math.inf], 1.0), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="Require t <= maturity"):
            exposure_limit(t, maturity, cfg)


def test_empirical_measure_is_one_at_time_zero():
    cfg = LimitConfig(**NOJUMP)
    ps = simulate_paths(build_name_sequence(cfg, 20), horizon=0.5, n_paths=40, seed=2,
                        dt=1e-2)
    mean, stderr = empirical_measure_eval(ps, 0.0, 0.0)
    assert mean == 1.0 and stderr == 0.0


def test_empirical_measure_converges_to_limit_values():
    cfg = LimitConfig(**NOJUMP)
    K = 300
    ps = simulate_paths(build_name_sequence(cfg, K), horizon=1.0, n_paths=400, seed=71,
                        dt=1e-3, sample_times=[0.5, 1.0])
    for t in (0.5, 1.0):
        mean, se = empirical_measure_eval(ps, 0.0, t)
        lim = survival_fhat(t, cfg)
        assert abs(mean - lim) < 3 * se + 0.01 * lim
        mean_e, se_e = empirical_measure_eval(ps, -1.0, t)
        lim_e = limit_exp_test(-1.0, t, cfg)
        assert abs(mean_e - lim_e) < 3 * se_e + 0.02 * lim_e


def test_empirical_measure_rejects_unknown_test_function():
    cfg = LimitConfig(**NOJUMP)
    ps = simulate_paths(build_name_sequence(cfg, 3), horizon=0.1, n_paths=5, seed=3,
                        dt=0.01)
    for theta in (0.5, math.nan):
        with pytest.raises(ValueError):
            empirical_measure_eval(ps, theta, 0.0)


def test_name_ladder_first_rung_and_limits():
    cfg = make_cfg()
    names = build_name_sequence(cfg, 1000).names
    first = names[0]
    assert first.alpha == pytest.approx(2 * cfg.alpha)
    assert first.kappa == pytest.approx(2 * cfg.kappa)
    assert first.sigma == pytest.approx(2 * cfg.sigma)
    assert first.xi0 == pytest.approx(2 * cfg.x0)
    last = names[-1]
    assert last.alpha == pytest.approx(cfg.alpha, rel=2e-3)
    # the contract terms are not laddered: every name carries s_z and l_z
    assert all(n.spread == cfg.s_z and n.loss == cfg.l_z for n in names)
    assert all(n.z == 1 for n in names)


def test_name_ladder_carries_the_limit_jump_law():
    # the book's pool takes cfg's common rate and both size rates, each in its place
    cfg = make_cfg(lambda_c=0.7, gamma1=1.5, gamma2=3.0)
    pool = build_name_sequence(cfg, 4)
    assert (pool.lambda_c, pool.gamma1, pool.gamma2) == (0.7, 1.5, 3.0)
    assert len(pool.names) == 4
    np.testing.assert_array_equal(pool.kappa, [n.kappa for n in pool.names])


def test_name_ladder_harmonic_average_identity():
    cfg = make_cfg()
    K = 300
    names = build_name_sequence(cfg, K).names
    # the book carries the contract averages that exposure_limit prices
    avg_spread = sum(n.z * n.spread for n in names) / K
    avg_loss = sum(n.z * n.loss for n in names) / K
    assert avg_spread == pytest.approx(cfg.s_z, rel=1e-12)
    assert avg_loss == pytest.approx(cfg.l_z, rel=1e-12)
    # the intensity ladder averages to the limit plus the harmonic bias
    avg_xi0 = sum(n.xi0 for n in names) / K
    harmonic = sum(1.0 / k for k in range(1, K + 1))
    assert avg_xi0 == pytest.approx(cfg.x0 * (1.0 + harmonic / K), rel=1e-12)
