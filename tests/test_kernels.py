import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cdspool import kernels
from cdspool.cli import build_spec, parse_config
from cdspool.errors import AccuracyError
from cdspool.exposure import LimitConfig, exposure_limit, survival_fhat
from cdspool.jumps import BveParams
from cdspool.kernels import (bcva, build_kernel_coeffs, h1, h2, joint_survival_equal,
                             kernel_ode_residuals, sensitivity_sweep)
from cdspool.quadrature import simpson_adaptive
from cdspool.riccati import integral_b, riccati_b
from cdspool.simulation import CounterpartyParams, CounterpartySide


def make_cps(**overrides):
    side = dict(alpha=0.4, kappa=0.6, sigma=0.3, c=0.3, d=0.3, lambda_hat=0.4,
                xi0=0.2)
    fields = dict(side_a=CounterpartySide(**side), side_b=CounterpartySide(**side),
                  common_jump=BveParams(1.5, 1.5, 0.0),
                  idio_jump=BveParams(1.5, 1.5, 0.0), loss_a=0.4, loss_b=0.4)
    fields.update(overrides)
    return CounterpartyParams(**fields)


def make_cfg(**overrides):
    base = dict(alpha=0.01, kappa=0.5, sigma=0.3, c=0.1, d=0.1, lambda_hat=0.2,
                x0=0.02, gamma1=2.0, gamma2=2.0, lambda_c=0.1, s_z=0.02, l_z=0.4,
                r=0.03)
    base.update(overrides)
    return LimitConfig(**base)


LAMBDA_C = 0.25


def test_initial_conditions():
    cps = make_cps()
    cb = build_kernel_coeffs(cps, LAMBDA_C, "B", 2.0)
    ca = build_kernel_coeffs(cps, LAMBDA_C, "A", 2.0)
    for coeffs in (cb, ca):
        assert coeffs.hat1[0] == 0.0
        assert coeffs.hat_a[0] == 0.0 and coeffs.hat_b[0] == 0.0
        assert coeffs.pre1[0] == 0.0
    assert cb.pre_b[0] == 1.0 and np.all(cb.pre_a == 0.0)
    assert ca.pre_a[0] == 1.0 and np.all(ca.pre_b == 0.0)
    assert h1(0.0, 0.7, 0.4, cb) == pytest.approx(0.4, abs=1e-14)
    assert h2(0.0, 0.7, 0.4, ca) == pytest.approx(0.7, abs=1e-14)
    assert joint_survival_equal(0.0, 0.7, 0.4, cb) == pytest.approx(1.0, abs=1e-14)


def test_jump_free_exponent_is_two_factor_transform():
    side_a = CounterpartySide(alpha=0.4, kappa=0.6, sigma=0.3, c=0.0, d=0.0,
                              lambda_hat=0.0, xi0=0.2)
    side_b = CounterpartySide(alpha=0.25, kappa=0.9, sigma=0.2, c=0.0, d=0.0,
                              lambda_hat=0.0, xi0=0.3)
    cps = make_cps(side_a=side_a, side_b=side_b)
    coeffs = build_kernel_coeffs(cps, 0.0, "B", 2.0)
    expected = (side_a.alpha * integral_b(side_a.kappa, side_a.sigma, coeffs.u_grid)
                + side_b.alpha * integral_b(side_b.kappa, side_b.sigma, coeffs.u_grid))
    np.testing.assert_allclose(coeffs.hat1, expected, atol=1e-9)
    # jump sizes off but clocks on: the compensator cancels the size-one MGFs
    coeffs2 = build_kernel_coeffs(make_cps(side_a=side_a,
                                           side_b=CounterpartySide(
                                               alpha=0.25, kappa=0.9, sigma=0.2,
                                               c=0.0, d=0.0, lambda_hat=0.7, xi0=0.3)),
                                  1.3, "B", 2.0)
    np.testing.assert_allclose(coeffs2.hat1, expected, atol=1e-9)


def test_symmetry_between_sides():
    cps = make_cps()
    cb = build_kernel_coeffs(cps, LAMBDA_C, "B", 2.0)
    np.testing.assert_allclose(cb.hat_a, cb.hat_b, rtol=1e-14)
    # swapping the sides and the states maps one kernel onto the other
    asym = make_cps(side_b=CounterpartySide(alpha=0.2, kappa=0.9, sigma=0.25,
                                            c=0.1, d=0.4, lambda_hat=0.6, xi0=0.35))
    swapped = CounterpartyParams(side_a=asym.side_b, side_b=asym.side_a,
                                 common_jump=BveParams(asym.common_jump.gamma_b,
                                                       asym.common_jump.gamma_a,
                                                       asym.common_jump.gamma_ab),
                                 idio_jump=BveParams(asym.idio_jump.gamma_b,
                                                     asym.idio_jump.gamma_a,
                                                     asym.idio_jump.gamma_ab))
    cb_asym = build_kernel_coeffs(asym, LAMBDA_C, "B", 2.0)
    ca_swap = build_kernel_coeffs(swapped, LAMBDA_C, "A", 2.0)
    u = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(h1(u, 0.2, 0.35, cb_asym),
                               h2(u, 0.35, 0.2, ca_swap), rtol=1e-12)


def test_ode_residuals_small():
    cps = make_cps()
    for side in ("A", "B"):
        coeffs = build_kernel_coeffs(cps, LAMBDA_C, side, 3.0)
        res = kernel_ode_residuals(coeffs, cps, LAMBDA_C)
        assert max(res.values()) < 1e-5


def test_h1_matches_mc_oracle():
    # frozen oracle: 5e4 counterparty paths, dt 1e-3, seed 909 at u = 1:
    # 0.23569471 +- 3.677e-04
    coeffs = build_kernel_coeffs(make_cps(), LAMBDA_C, "B", 1.5)
    closed = h1(1.0, 0.2, 0.2, coeffs)
    assert abs(closed - 0.23569471) < 3 * 3.677e-4
    assert abs(closed - 0.23569471) / 0.23569471 < 0.02


def test_h2_matches_mc_oracle():
    # frozen oracle, same seed, side A weight: 0.23615590 +- 3.706e-04
    coeffs = build_kernel_coeffs(make_cps(), LAMBDA_C, "A", 1.5)
    assert abs(h2(1.0, 0.2, 0.2, coeffs) - 0.23615590) < 3 * 3.706e-4


def test_joint_survival_matches_mc_oracle():
    # frozen oracle: 0.48547509 +- 3.759e-04
    coeffs = build_kernel_coeffs(make_cps(), LAMBDA_C, "B", 2.5)
    closed = joint_survival_equal(1.0, 0.2, 0.2, coeffs)
    assert abs(closed - 0.48547509) < 3 * 3.759e-4
    u = np.linspace(0.0, 2.5, 26)
    vals = joint_survival_equal(u, 0.2, 0.2, coeffs)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def test_joint_survival_factorizes_without_jumps():
    side_a = CounterpartySide(alpha=0.4, kappa=0.6, sigma=0.3, c=0.0, d=0.0,
                              lambda_hat=0.0, xi0=0.2)
    side_b = CounterpartySide(alpha=0.25, kappa=0.9, sigma=0.2, c=0.0, d=0.0,
                              lambda_hat=0.0, xi0=0.3)
    coeffs = build_kernel_coeffs(make_cps(side_a=side_a, side_b=side_b), 0.0, "B", 2.0)
    u, x_a, x_b = 1.3, 0.2, 0.3

    def transform(side, x):
        return math.exp(side.alpha * integral_b(side.kappa, side.sigma, u)
                        + riccati_b(side.kappa, side.sigma, u) * x)

    assert joint_survival_equal(u, x_a, x_b, coeffs) == pytest.approx(
        transform(side_a, x_a) * transform(side_b, x_b), abs=1e-10)


def test_joint_survival_below_single_side_survivals():
    coeffs = build_kernel_coeffs(make_cps(), LAMBDA_C, "B", 2.0)
    u = np.linspace(0.0, 2.0, 21)
    joint = joint_survival_equal(u, 0.4, 0.7, coeffs)
    assert np.all(joint <= joint_survival_equal(u, 0.4, 0.0, coeffs) + 1e-15)
    assert np.all(joint <= joint_survival_equal(u, 0.0, 0.7, coeffs) + 1e-15)


def test_kernels_nonnegative_and_bounded_domain():
    cps = make_cps()
    coeffs = build_kernel_coeffs(cps, LAMBDA_C, "B", 2.0)
    u = np.linspace(0.0, 2.0, 81)
    assert np.all(h1(u, 0.0, 0.0, coeffs) >= 0.0)
    assert np.all(h1(u, 0.5, 1.2, coeffs) >= 0.0)
    with pytest.raises(ValueError):
        h1(2.5, 0.2, 0.2, coeffs)
    with pytest.raises(ValueError):
        h1(1.0, 0.2, 0.2, build_kernel_coeffs(cps, LAMBDA_C, "A", 2.0))


def test_default_density_integrates_below_one():
    # integral of pool-survival-weighted side-B default density over a
    # horizon of 50 mean reversions stays a sub-probability
    cps = make_cps()
    cfg = make_cfg(lambda_c=LAMBDA_C)
    u_max = 50.0 / cps.side_b.kappa
    coeffs = build_kernel_coeffs(cps, LAMBDA_C, "B", u_max, 8192)

    def integrand(s):
        return survival_fhat(0.0, s, cfg) * coeffs.evaluate(s, 0.2, 0.2)

    total = simpson_adaptive(integrand, 0.0, u_max, rel_tol=1e-7)
    assert 0.0 < total <= 1.0


def test_accuracy_error_on_coarse_grid():
    with pytest.raises(AccuracyError):
        build_kernel_coeffs(make_cps(), LAMBDA_C, "B", 3.0, n_grid=64)


def test_bcva_zero_at_maturity():
    res = bcva(3.0, 3.0, make_cfg(), make_cps())
    assert res.cva == res.dva == res.bcva == 0.0


def test_bcva_sign_decomposition_and_in_the_money_dva():
    # lambda_c = 0.1 keeps the exposure positive on [0, T]: the negative
    # part vanishes identically and so does the own-default term
    res = bcva(0.0, 3.0, make_cfg(), make_cps())
    assert res.dva == 0.0
    assert res.cva > 0.0
    assert res.bcva == res.dva - res.cva
    assert res.total_bcva == res.bcva
    res_k = bcva(0.0, 3.0, make_cfg(), make_cps(), k=300)
    assert res_k.total_bcva == pytest.approx(300 * res_k.bcva)


def test_bcva_handles_sign_change_in_exposure():
    # lambda_c = 1 puts the sign change of the exposure inside (0, T):
    # both adjustments are active and the split quadrature must agree with
    # a brute-force dense evaluation of the kinked integrand
    cfg = make_cfg(lambda_c=1.0)
    cps = make_cps()
    res = bcva(0.0, 3.0, cfg, cps)
    assert res.cva > 0.0 and res.dva > 0.0

    coeffs_b = build_kernel_coeffs(cps, cfg.lambda_c, "B", 3.0)
    coeffs_a = build_kernel_coeffs(cps, cfg.lambda_c, "A", 3.0)
    s = np.linspace(0.0, 3.0, 30_001)
    eps = np.array([exposure_limit(si, 3.0, cfg) for si in np.linspace(0, 3, 601)])
    eps_dense = np.interp(s, np.linspace(0, 3, 601), eps)
    disc = np.exp(-cfg.r * s) * survival_fhat(0.0, s, cfg)
    cva_ref = cps.loss_b * np.trapezoid(
        disc * np.maximum(eps_dense, 0.0) * coeffs_b.evaluate(s, 0.2, 0.2), s)
    dva_ref = cps.loss_a * np.trapezoid(
        disc * np.maximum(-eps_dense, 0.0) * coeffs_a.evaluate(s, 0.2, 0.2), s)
    assert res.cva == pytest.approx(cva_ref, rel=2e-3)
    assert res.dva == pytest.approx(dva_ref, rel=2e-3)


def fig4_point(lambda_c):
    mapping = parse_config((Path(__file__).resolve().parents[1] / "configs"
                            / "fig4.cfg").read_text())
    spec = build_spec(mapping, "bcva-sweep", None, 1, None)
    return replace(spec.limit, lambda_c=lambda_c), spec.cps, spec.horizon, spec.kernel_grid


@pytest.mark.parametrize("lambda_c", [1.0, 3.0])
def test_bcva_matches_tight_simpson_reference(lambda_c):
    # both fig4 points change sign inside (0, T); the reference integrates
    # the same sign segments by Simpson doubling to rel_tol 1e-11
    cfg, cps, maturity, n_grid = fig4_point(lambda_c)
    res = bcva(0.0, maturity, cfg, cps, n_grid=n_grid)

    def eps(s):
        return exposure_limit(s, maturity, cfg)

    cuts = kernels._sign_segments(eps, 0.0, maturity)
    assert len(cuts) == 3
    ref = {}
    for side, sign in (("B", 1.0), ("A", -1.0)):
        coeffs = build_kernel_coeffs(cps, cfg.lambda_c, side, maturity, n_grid)

        def integrand(s):
            return (np.exp(-cfg.r * s) * np.maximum(sign * eps(s), 0.0)
                    * survival_fhat(0.0, s, cfg)
                    * coeffs.evaluate(s, cps.side_a.xi0, cps.side_b.xi0))

        ref[side] = sum(simpson_adaptive(integrand, lo, hi, rel_tol=1e-11)
                        for lo, hi in zip(cuts, cuts[1:])
                        if sign * eps(0.5 * (lo + hi)) > 0.0)
    assert res.cva == pytest.approx(cps.loss_b * ref["B"], rel=1e-9, abs=0.0)
    assert res.dva == pytest.approx(cps.loss_a * ref["A"], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("lambda_c, sides", [(0.0, ["B"]), (1.0, ["B", "A"])])
def test_bcva_builds_only_the_kernel_sides_it_needs(monkeypatch, lambda_c, sides):
    # lambda_c = 0 keeps the exposure positive on [0, T], so DVA needs no
    # side-A kernel; lambda_c = 1 has a sign change and needs both
    built = []
    original = kernels.build_kernel_coeffs

    def counting(cps, lam, side, *args, **kwargs):
        built.append(side)
        return original(cps, lam, side, *args, **kwargs)

    monkeypatch.setattr(kernels, "build_kernel_coeffs", counting)
    cfg, cps, maturity, n_grid = fig4_point(lambda_c)
    res = bcva(0.0, maturity, cfg, cps, n_grid=n_grid)
    assert built == sides
    assert (res.dva > 0.0) == ("A" in sides)


def test_bcva_against_nested_mc():
    # frozen oracle: 5e4 counterparty paths, exposure applied at side B's
    # default times, pool survival weighting; seed 99, dt 3e-3:
    # 1.866279e-03 +- 9.16e-06
    res = bcva(0.0, 3.0, make_cfg(lambda_c=LAMBDA_C), make_cps())
    assert abs(res.cva - 1.866279e-3) < 3 * 9.16e-6


def test_sweep_returns_grid_and_rejects_unknown_parameter():
    cfg, cps = make_cfg(), make_cps()
    res = sensitivity_sweep("sigma_star", [0.2, 0.3, 0.4], cfg, cps, maturity=3.0)
    assert res.values.tolist() == [0.2, 0.3, 0.4]
    assert np.all(np.diff(res.cva) >= 0.0)
    np.testing.assert_allclose(res.bcva, res.dva - res.cva)
    with pytest.raises(ValueError):
        sensitivity_sweep("kappa_star", [0.1], cfg, cps)


def test_sweep_worker_invariance():
    cfg, cps = make_cfg(), make_cps()
    serial = sensitivity_sweep("lambda_c", [0.0, 0.5, 1.0], cfg, cps, maturity=3.0)
    parallel = sensitivity_sweep("lambda_c", [0.0, 0.5, 1.0], cfg, cps, maturity=3.0,
                                 workers=3)
    np.testing.assert_array_equal(serial.cva, parallel.cva)
    np.testing.assert_array_equal(serial.dva, parallel.dva)
