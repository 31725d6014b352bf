import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.optimize import brentq

from cdspool import harness, kernels
from cdspool.cli import EXIT_OK, build_spec, main, parse_config
from cdspool.errors import AccuracyError
from cdspool.exposure import LimitConfig, exposure_limit, survival_fhat
from cdspool.jumps import BveParams, mgf_bve, mgf_bve_partials
from cdspool.kernels import (bcva, joint_survival, kernel, kernel_coefficients,
                             kernel_ode_residuals, sensitivity_sweep)
from cdspool.riccati import exp_phi, integral_b, riccati_b
from cdspool.simulation import (CounterpartyParams, CounterpartySide, Pool, _euler_blocks,
                                _richardson, mc_kernel_oracles)

from oracles import simpson_adaptive

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
    for side in ("B", "A"):
        at0 = kernel_coefficients(0.0, cps, LAMBDA_C, side)
        assert at0["hat1"] == 0.0
        assert at0["hat_a"] == 0.0 and at0["hat_b"] == 0.0
        assert at0["pre1"] == 0.0
    u = np.linspace(0.0, 2.0, 41)
    assert kernel_coefficients(0.0, cps, LAMBDA_C, "B")["pre_b"] == 1.0
    assert np.all(kernel_coefficients(u, cps, LAMBDA_C, "B")["pre_a"] == 0.0)
    assert kernel_coefficients(0.0, cps, LAMBDA_C, "A")["pre_a"] == 1.0
    assert np.all(kernel_coefficients(u, cps, LAMBDA_C, "A")["pre_b"] == 0.0)
    assert kernel(0.0, 0.7, 0.4, cps, LAMBDA_C, "B") == pytest.approx(0.4, abs=1e-14)
    assert kernel(0.0, 0.7, 0.4, cps, LAMBDA_C, "A") == pytest.approx(0.7, abs=1e-14)
    assert joint_survival(0.0, 0.7, 0.4, cps, LAMBDA_C) == pytest.approx(1.0, abs=1e-14)


def test_jump_free_exponent_is_two_factor_transform():
    side_a = CounterpartySide(alpha=0.4, kappa=0.6, sigma=0.3, c=0.0, d=0.0,
                              lambda_hat=0.0, xi0=0.2)
    side_b = CounterpartySide(alpha=0.25, kappa=0.9, sigma=0.2, c=0.0, d=0.0,
                              lambda_hat=0.0, xi0=0.3)
    cps = make_cps(side_a=side_a, side_b=side_b)
    u = np.linspace(0.0, 2.0, 41)
    expected = (side_a.alpha * integral_b(side_a.kappa, side_a.sigma, u)
                + side_b.alpha * integral_b(side_b.kappa, side_b.sigma, u))
    np.testing.assert_allclose(kernel_coefficients(u, cps, 0.0, "B")["hat1"], expected,
                               atol=1e-9)
    # jump sizes off but clocks on: the compensator cancels the size-one MGFs
    cps2 = make_cps(side_a=side_a,
                    side_b=CounterpartySide(alpha=0.25, kappa=0.9, sigma=0.2,
                                            c=0.0, d=0.0, lambda_hat=0.7, xi0=0.3))
    np.testing.assert_allclose(kernel_coefficients(u, cps2, 1.3, "B")["hat1"], expected,
                               atol=1e-9)


def test_symmetry_between_sides():
    cps = make_cps()
    at = kernel_coefficients(np.linspace(0.0, 2.0, 41), cps, LAMBDA_C, "B")
    np.testing.assert_allclose(at["hat_a"], at["hat_b"], rtol=1e-14)
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
    u = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(kernel(u, 0.2, 0.35, asym, LAMBDA_C, "B"),
                               kernel(u, 0.35, 0.2, swapped, LAMBDA_C, "A"), rtol=1e-12)


def test_ode_residuals_small():
    cps = make_cps()
    for side in ("A", "B"):
        res = kernel_ode_residuals(cps, LAMBDA_C, side, 3.0)
        assert max(res.values()) < 1e-5


def simpson_reference_kernel(cps, lambda_c, side, u, x_a, x_b):
    """The two constant terms and the kernel value on a uniform grid u
    starting at 0, with both constant terms integrated by cumulative
    Simpson."""

    sa, sb = cps.side_a, cps.side_b
    hat_a = riccati_b(sa.kappa, sa.sigma, u)
    hat_b = riccati_b(sb.kappa, sb.sigma, u)
    zero = np.zeros_like(u)
    rate = (sa.alpha * hat_a + sb.alpha * hat_b
            + lambda_c * mgf_bve(sa.c * hat_a, sb.c * hat_b, cps.common_jump)
            + sa.lambda_hat * mgf_bve(sa.d * hat_a, zero, cps.idio_jump)
            + sb.lambda_hat * mgf_bve(zero, sb.d * hat_b, cps.idio_jump))
    lam = sa.lambda_hat + sb.lambda_hat + lambda_c
    hat1 = cumulative_simpson(rate, x=u, initial=0.0) - lam * u
    own_side, i = (sb, 1) if side == "B" else (sa, 0)
    own = exp_phi(own_side.kappa, own_side.sigma, u)
    dphi = mgf_bve_partials(sa.c * hat_a, sb.c * hat_b, cps.common_jump)[i]
    idio = (zero, sb.d * hat_b) if side == "B" else (sa.d * hat_a, zero)
    dphit = mgf_bve_partials(*idio, cps.idio_jump)[i]
    pre1 = cumulative_simpson(own * (own_side.alpha + lambda_c * own_side.c * dphi
                                     + own_side.lambda_hat * own_side.d * dphit),
                              x=u, initial=0.0)
    x_own = x_b if side == "B" else x_a
    return hat1, pre1, (pre1 + own * x_own) * np.exp(hat1 + hat_a * x_a + hat_b * x_b)


ASYM_CPS = make_cps(side_b=CounterpartySide(alpha=0.2, kappa=0.9, sigma=0.25, c=0.1,
                                            d=0.4, lambda_hat=0.6, xi0=0.35),
                    common_jump=BveParams(1.2, 1.5, 0.6),
                    idio_jump=BveParams(1.5, 0.8, 0.3))


@pytest.mark.parametrize("lambda_c", [0.0, 0.1, 3.0])
@pytest.mark.parametrize("side", ["A", "B"])
def test_kernel_matches_cumulative_simpson_reference(side, lambda_c):
    # 2^18 Simpson panels on [0, 25]; the sampled lags lie on that grid and
    # straddle the 10- and 20-year edges of the Gauss-Legendre panels. The
    # kernel has decayed where a ten-year panel errs most, so the constant
    # terms are checked on their own too (for this pair a ten-year panel
    # errs by up to 7.3e-10 on them, a 25-year one by 5e-7)
    n = 1 << 18
    u = np.linspace(0.0, 25.0, n + 1)
    idx = np.array([0, 1, 7, 5243, 20972, 104857, 104858, 157286, 209715, 209716,
                    236000, n])
    hat1, pre1, value = (x[idx] for x in simpson_reference_kernel(
        ASYM_CPS, lambda_c, side, u, 0.2, 0.35))
    at = kernel_coefficients(u[idx], ASYM_CPS, lambda_c, side)
    assert np.max(np.abs(at["hat1"] - hat1)) <= 2e-9
    assert np.max(np.abs(at["pre1"] - pre1)) <= 2e-9
    closed = kernel(u[idx], 0.2, 0.35, ASYM_CPS, lambda_c, side)
    assert np.max(np.abs(closed - value)) <= 1e-13


@pytest.mark.parametrize("lambda_c", [0.1, 3.0])
def test_exponent_coefficients_do_not_depend_on_the_side(lambda_c):
    # why joint_survival takes no side: both sides give the same exponent
    # bit for bit, on an asymmetric pair and across the panel edges
    u = np.array([0.0, 1e-3, 0.7, 9.999, 10.0, 10.001, 17.3, 25.0])
    at_a = kernel_coefficients(u, ASYM_CPS, lambda_c, "A")
    at_b = kernel_coefficients(u, ASYM_CPS, lambda_c, "B")
    for name in ("hat1", "hat_a", "hat_b"):
        assert np.array_equal(at_a[name], at_b[name])


def test_kernel_vector_call_equals_scalar_calls():
    u = np.array([0.0, 1e-3, 0.7, 9.999, 10.0, 10.001, 17.3, 20.0, 24.9])
    for f in (lambda v: kernel(v, 0.2, 0.35, ASYM_CPS, 0.1, "A"),
              lambda v: kernel(v, 0.2, 0.35, ASYM_CPS, 0.1, "B"),
              lambda v: joint_survival(v, 0.2, 0.35, ASYM_CPS, 0.1)):
        assert np.array_equal(f(u), [f(x) for x in u])


def test_fig4_point_prices_at_a_100_year_horizon(tmp_path, capsys):
    # a horizon of ten Gauss-Legendre panels needs no grid or guard setting
    code = main(["--experiment", "bcva-sweep", "--config",
                 str(CONFIGS / "fig4.cfg"),
                 "--set", "experiment.horizon=100", "--set", "experiment.sweep_values=0.5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK, capsys.readouterr().err
    rows = (tmp_path / "curve-bcva-lambda_c.csv").read_text().splitlines()
    assert len(rows) == 2
    values = [float(x) for x in rows[1].split(",")]
    assert all(math.isfinite(x) for x in values) and values[2] > 0.0  # dva


def test_h1_matches_mc_oracle():
    # frozen oracle: 5e4 counterparty paths, dt 1e-3, seed 909 at u = 1:
    # 0.23569471 +- 3.677e-04
    closed = kernel(1.0, 0.2, 0.2, make_cps(), LAMBDA_C, "B")
    assert abs(closed - 0.23569471) < 3 * 3.677e-4
    assert abs(closed - 0.23569471) / 0.23569471 < 0.02


def test_h2_matches_mc_oracle():
    # frozen oracle, same seed, side A weight: 0.23615590 +- 3.706e-04
    assert abs(kernel(1.0, 0.2, 0.2, make_cps(), LAMBDA_C, "A") - 0.23615590) < 3 * 3.706e-4


def test_joint_survival_matches_mc_oracle():
    # frozen oracle: 0.48547509 +- 3.759e-04
    closed = joint_survival(1.0, 0.2, 0.2, make_cps(), LAMBDA_C)
    assert abs(closed - 0.48547509) < 3 * 3.759e-4
    u = np.linspace(0.0, 2.5, 26)
    vals = joint_survival(u, 0.2, 0.2, make_cps(), LAMBDA_C)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def test_joint_survival_factorizes_without_jumps():
    side_a = CounterpartySide(alpha=0.4, kappa=0.6, sigma=0.3, c=0.0, d=0.0,
                              lambda_hat=0.0, xi0=0.2)
    side_b = CounterpartySide(alpha=0.25, kappa=0.9, sigma=0.2, c=0.0, d=0.0,
                              lambda_hat=0.0, xi0=0.3)
    cps = make_cps(side_a=side_a, side_b=side_b)
    u, x_a, x_b = 1.3, 0.2, 0.3

    def transform(side, x):
        return math.exp(side.alpha * integral_b(side.kappa, side.sigma, u)
                        + riccati_b(side.kappa, side.sigma, u) * x)

    assert joint_survival(u, x_a, x_b, cps, 0.0) == pytest.approx(
        transform(side_a, x_a) * transform(side_b, x_b), abs=1e-10)


def test_joint_survival_below_single_side_survivals():
    cps = make_cps()
    u = np.linspace(0.0, 2.0, 21)
    joint = joint_survival(u, 0.4, 0.7, cps, LAMBDA_C)
    assert np.all(joint <= joint_survival(u, 0.4, 0.0, cps, LAMBDA_C) + 1e-15)
    assert np.all(joint <= joint_survival(u, 0.0, 0.7, cps, LAMBDA_C) + 1e-15)


def test_kernels_nonnegative_and_bounded_domain():
    cps = make_cps()
    u = np.linspace(0.0, 2.0, 81)
    assert np.all(kernel(u, 0.0, 0.0, cps, LAMBDA_C, "B") >= 0.0)
    assert np.all(kernel(u, 0.5, 1.2, cps, LAMBDA_C, "B") >= 0.0)
    with pytest.raises(ValueError):
        kernel(-0.1, 0.2, 0.2, cps, LAMBDA_C, "B")
    with pytest.raises(ValueError):
        kernel(1.0, 0.2, 0.2, cps, LAMBDA_C, "C")


@pytest.mark.parametrize("x_a, x_b", [(math.nan, 0.2), (-0.5, 0.2), (math.inf, 0.2),
                                      (0.2, math.nan), (0.2, np.array([0.1, -1e-300]))])
def test_kernels_reject_bad_intensities(x_a, x_b):
    cps = make_cps()
    for f in (lambda: kernel(1.0, x_a, x_b, cps, LAMBDA_C, "B"),
              lambda: joint_survival(1.0, x_a, x_b, cps, LAMBDA_C)):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            f()


@pytest.mark.parametrize("maturity", [math.nan, math.inf, -1.0])
def test_bcva_rejects_a_bad_maturity_up_front(maturity):
    with pytest.raises(ValueError, match="Require a finite maturity"):
        bcva(maturity, make_cfg(lambda_c=LAMBDA_C), make_cps())


def test_default_density_integrates_below_one():
    # integral of pool-survival-weighted side-B default density over a
    # horizon of 50 mean reversions stays a sub-probability
    cps = make_cps()
    cfg = make_cfg(lambda_c=LAMBDA_C)
    u_max = 50.0 / cps.side_b.kappa

    def integrand(s):
        return survival_fhat(s, cfg) * kernel(s, 0.2, 0.2, cps, LAMBDA_C, "B")

    total = simpson_adaptive(integrand, 0.0, u_max, rel_tol=1e-7)
    assert 0.0 < total <= 1.0


def test_bcva_zero_at_maturity():
    res = bcva(0.0, make_cfg(), make_cps())
    assert res.cva == res.dva == res.bcva == 0.0
    with pytest.raises(ValueError):
        bcva(-1.0, make_cfg(), make_cps())


def test_bcva_sign_decomposition_and_in_the_money_dva():
    # lambda_c = 0.1 keeps the exposure positive on [0, T]: the negative
    # part vanishes identically and so does the own-default term
    res = bcva(3.0, make_cfg(), make_cps())
    assert res.dva == 0.0
    assert res.cva > 0.0
    assert res.bcva == res.dva - res.cva


def test_bcva_handles_sign_change_in_exposure():
    # lambda_c = 1 puts the sign change of the exposure inside (0, T):
    # both adjustments are active and the split quadrature must agree with
    # a brute-force dense evaluation of the kinked integrand
    cfg = make_cfg(lambda_c=1.0)
    cps = make_cps()
    res = bcva(3.0, cfg, cps)
    assert res.cva > 0.0 and res.dva > 0.0

    s = np.linspace(0.0, 3.0, 30_001)
    eps = np.array([exposure_limit(si, 3.0, cfg) for si in np.linspace(0, 3, 601)])
    eps_dense = np.interp(s, np.linspace(0, 3, 601), eps)
    disc = np.exp(-cfg.r * s) * survival_fhat(s, cfg)
    cva_ref = cps.loss_b * np.trapezoid(
        disc * np.maximum(eps_dense, 0.0) * kernel(s, 0.2, 0.2, cps, cfg.lambda_c, "B"), s)
    dva_ref = cps.loss_a * np.trapezoid(
        disc * np.maximum(-eps_dense, 0.0) * kernel(s, 0.2, 0.2, cps, cfg.lambda_c, "A"), s)
    assert res.cva == pytest.approx(cva_ref, rel=2e-3)
    assert res.dva == pytest.approx(dva_ref, rel=2e-3)


def scan_brackets(f, a, b):
    """The sign-change brackets of the 257-point scan _sign_segments starts from."""

    x = np.linspace(a, b, 257)
    y = f(x)
    return [(x[i], x[i + 1]) for i in np.flatnonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0.0)]


def assert_cuts_match_brentq(f, a, b, cuts, tol):
    inner = cuts[1:-1]
    brackets = scan_brackets(f, a, b)
    assert cuts[0] == a and cuts[-1] == b and len(inner) == len(brackets)
    for cut, (lo, hi), bound in zip(inner, brackets, np.broadcast_to(tol, len(inner))):
        assert lo < cut < hi
        assert abs(cut - brentq(f, lo, hi, xtol=1e-15)) <= bound


def test_sign_segments_match_brentq_on_every_sweep_bracket(monkeypatch):
    # every sign change bcva meets on the fig2-fig5 sweep points
    calls = {}
    segments = kernels._sign_segments

    def recording(f, a, b):
        cuts, signs = segments(f, a, b)
        calls.setdefault(stem, []).append((f, a, b, cuts))
        return cuts, signs

    monkeypatch.setattr(kernels, "_sign_segments", recording)
    for stem in ("fig2", "fig3", "fig4", "fig5"):
        spec = build_spec(parse_config((CONFIGS / f"{stem}.cfg").read_text()),
                          "bcva-sweep", None, 1, None)
        sensitivity_sweep(spec.sweep, spec.sweep_values, spec.limit, spec.cps,
                          maturity=spec.horizon)
    n_cuts = {stem: sum(len(c[3]) - 2 for c in calls[stem]) for stem in calls}
    assert n_cuts == {"fig2": 0, "fig3": 0, "fig4": 10, "fig5": 0}
    for f, a, b, cuts in calls["fig4"]:
        assert_cuts_match_brentq(f, a, b, cuts, tol=1e-13)


def test_sign_segments_match_brentq_on_random_smooth_functions():
    # smooth functions whose roots lie more than one scan cell apart, so
    # each sits in its own scan bracket
    rng = np.random.default_rng(1973)
    n_roots = 0
    for _ in range(300):
        a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
        roots = np.sort(rng.uniform(a, b, size=rng.integers(0, 5)))
        if np.any(np.diff(roots) <= (b - a) / 256):
            continue
        rate, amp = rng.normal(size=2)
        freq, phase = rng.uniform(0.5, 8.0), rng.uniform(0.0, 2.0 * math.pi)

        def f(x):
            x = np.asarray(x, dtype=float)
            return (np.prod(x[..., None] - roots, axis=-1) * np.exp(rate * x)
                    * (1.5 + np.tanh(amp) * np.sin(freq * x + phase)))

        cuts, signs = kernels._sign_segments(f, a, b)
        assert len(cuts) == len(roots) + 2
        # the signs read off the scan are f's at each segment's midpoint
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        np.testing.assert_array_equal(signs, np.sign(f(mid)))
        # the secant's error on a last bracket of width w is about
        # (w / 2)^2 |f'' / 2 f'|, and a root d from the next one adds 1 / d
        # to that ratio: 2.3e-13 of the span for roots one cell apart
        w = (b - a) / 256**3
        gaps = np.abs(roots[:, None] - roots)
        np.fill_diagonal(gaps, np.inf)
        assert_cuts_match_brentq(f, a, b, cuts,
                                 tol=1e-13 * (b - a) + (w / 2)**2 * np.sum(1 / gaps, axis=1))
        n_roots += len(roots)
    assert n_roots > 300


def test_a_scan_value_of_zero_is_a_cut():
    # 1/2 is a point of the first scan; r a point of the first rescan of
    # [100/256, 101/256], and q one of the second rescan of its last bracket
    r = (100 + 37 / 256) / 256
    q = (100 + (37 + 11 / 256) / 256) / 256
    for root in (0.5, r, q):
        def f(x):
            return (x - root) * np.exp(x)

        cuts, signs = kernels._sign_segments(f, 0.0, 1.0)
        assert cuts.tolist() == [0.0, root, 1.0] and signs.tolist() == [-1.0, 1.0]


def test_no_sign_change_gives_the_whole_interval():
    cuts, signs = kernels._sign_segments(lambda x: x * x + 1.0, -1.0, 1.0)
    assert cuts.tolist() == [-1.0, 1.0] and signs.tolist() == [1.0]


def test_segment_signs_come_from_the_first_scan():
    # roots in the first and the last scan bracket leave end segments with
    # no scan point inside: each takes the sign at its end, and f is called
    # for the first scan and the two rescans only
    calls = []

    def f(x):
        calls.append(len(x))
        return (x - 0.001) * (0.999 - x)

    cuts, signs = kernels._sign_segments(f, 0.0, 1.0)
    assert len(cuts) == 4 and cuts[1] == pytest.approx(0.001, abs=1e-15)
    assert signs.tolist() == [-1.0, 1.0, -1.0] and calls == [257, 2 * 255, 2 * 255]
    # f is 0 on [1/4, 3/4]: each of its scan points is a cut, and each
    # segment between two of them, with no nonzero scan value, has sign 0
    cuts, signs = kernels._sign_segments(
        lambda x: np.minimum(x - 0.25, 0.0) + np.maximum(x - 0.75, 0.0), 0.0, 1.0)
    assert cuts.tolist() == np.linspace(0.0, 1.0, 257)[[0, *range(64, 193), 256]].tolist()
    assert signs.tolist() == [-1.0] + [0.0] * 128 + [1.0]


def test_a_nan_in_any_scan_is_an_accuracy_error():
    # the first scan's point 76/256 is NaN; then a NaN window between the
    # first scan's points 128/256 and 129/256, inside the bracket of the
    # root 128.5/256, that only the rescans reach
    def first(x):
        return np.where(x == 76 / 256, math.nan, x - 0.5)

    def rescan(x):
        return np.where(np.abs(x - 128.25 / 256) < 1e-4, math.nan, x - 128.5 / 256)

    for f in (first, rescan):
        with pytest.raises(AccuracyError, match="NaN"):
            kernels._sign_segments(f, 0.0, 1.0)
    # the rescan's NaN window misses every point of the first scan
    assert not np.isnan(rescan(np.linspace(0.0, 1.0, 257))).any()


def fig4_point(lambda_c):
    mapping = parse_config((CONFIGS / "fig4.cfg").read_text())
    spec = build_spec(mapping, "bcva-sweep", None, 1, None)
    return replace(spec.limit, lambda_c=lambda_c), spec.cps, spec.horizon


@pytest.mark.parametrize("lambda_c", [1.0, 3.0])
def test_bcva_matches_tight_simpson_reference(lambda_c):
    # both fig4 points change sign inside (0, T); the reference integrates
    # the same sign segments by Simpson doubling to rel_tol 1e-11
    cfg, cps, maturity = fig4_point(lambda_c)
    res = bcva(maturity, cfg, cps)

    def eps(s):
        return exposure_limit(s, maturity, cfg)

    cuts, signs = kernels._sign_segments(eps, 0.0, maturity)
    assert len(cuts) == 3 and signs[0] == -signs[1] != 0.0
    ref = {}
    for side, sign in (("B", 1.0), ("A", -1.0)):
        def integrand(s):
            return (np.exp(-cfg.r * s) * np.maximum(sign * eps(s), 0.0)
                    * survival_fhat(s, cfg)
                    * kernel(s, cps.side_a.xi0, cps.side_b.xi0, cps, cfg.lambda_c, side))

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
    original = kernels.kernel

    def counting(u, x_a, x_b, cps, lam, side):
        built.append(side)
        return original(u, x_a, x_b, cps, lam, side)

    monkeypatch.setattr(kernels, "kernel", counting)
    cfg, cps, maturity = fig4_point(lambda_c)
    res = bcva(maturity, cfg, cps)
    assert built == sides
    assert (res.dva > 0.0) == ("A" in sides)


def test_bcva_against_nested_mc():
    # frozen oracle: 5e4 counterparty paths, exposure applied at side B's
    # default times, pool survival weighting; seed 99, dt 3e-3:
    # 1.866279e-03 +- 9.16e-06
    res = bcva(3.0, make_cfg(lambda_c=LAMBDA_C), make_cps())
    assert abs(res.cva - 1.866279e-3) < 3 * 9.16e-6


def test_bcva_both_sides_match_conditional_mc_through_a_sign_change():
    # fig4's lambda_c = 1 point, whose exposure turns negative before T = 3,
    # against the gate's estimator: the pair alone at step _PAIR_DT and its
    # coupled coarse path, each path scored on the 253 coarse nodes by its
    # conditional CVA (weights with (E)^+ against xi_B S_AB) and DVA
    # ((E)^- against xi_A S_AB), then Richardson-extrapolated. At 4096 paths
    # the stderr is 0.7% of CVA and 0.35% of DVA. The node rule's bias at
    # the (E)^- kink, the node sums of the closed-form kernels against bcva,
    # is -0.010 (CVA) and -0.006 (DVA) of a stderr
    cfg, cps, maturity = fig4_point(1.0)
    nodes, g_cva = harness._cva_node_weights(cfg, cps.loss_b, maturity)
    w = np.full(len(nodes), nodes[1])
    w[[0, -1]] *= 0.5
    g_dva = w * cps.loss_a * kernels._adjustment_integrand(nodes, maturity, cfg, -1.0)
    assert len(nodes) == 253 and g_cva.any() and g_dva.any()
    # vals[side, level, m]: path m's conditional CVA then DVA, fine then coarse
    vals = np.zeros((2, 2, 4096))

    def fold(level, i, r0, r1, xp, integ, thr):
        h1, h2, _ = mc_kernel_oracles(xp[:r1 - r0], integ[:r1 - r0])
        vals[0, level, r0:r1] += g_cva[i] * h1
        vals[1, level, r0:r1] += g_dva[i] * h2

    _euler_blocks(Pool((), cfg.lambda_c), cps, horizon=maturity, n_paths=4096, seed=4133,
                  dt=harness._PAIR_DT, sample_times=nodes, workers=1, visit=fold)
    res = bcva(maturity, cfg, cps)
    for closed, levels in ((res.cva, vals[0]), (res.dva, vals[1])):
        est, se = _richardson(*levels)
        assert abs(est - closed) <= 3.0 * se
        assert se < 0.01 * closed


def test_sweep_returns_grid_and_rejects_unknown_parameter():
    cfg, cps = make_cfg(), make_cps()
    res = sensitivity_sweep("sigma_star", [0.2, 0.3, 0.4], cfg, cps, maturity=3.0)
    assert res.values.tolist() == [0.2, 0.3, 0.4]
    assert np.all(np.diff(res.cva) >= 0.0)
    np.testing.assert_allclose(res.bcva, res.dva - res.cva)
    with pytest.raises(ValueError):
        sensitivity_sweep("kappa_star", [0.1], cfg, cps, maturity=3.0)


def test_sweep_worker_invariance():
    cfg, cps = make_cfg(), make_cps()
    serial = sensitivity_sweep("lambda_c", [0.0, 0.5, 1.0], cfg, cps, maturity=3.0)
    parallel = sensitivity_sweep("lambda_c", [0.0, 0.5, 1.0], cfg, cps, maturity=3.0,
                                 workers=3)
    np.testing.assert_array_equal(serial.cva, parallel.cva)
    np.testing.assert_array_equal(serial.dva, parallel.dva)
