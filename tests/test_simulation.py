import hashlib
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from cdspool.errors import ConfigError
from cdspool.exposure import LimitConfig, build_name_sequence, exposure_limit
from cdspool.jumps import BveParams, mgf_exp
from cdspool.quadrature import composite_simpson, simpson_weights
from cdspool.riccati import integral_beta, riccati_b, riccati_beta
from cdspool.simulation import (CounterpartyParams, CounterpartySide, NameParams, Pool,
                                _book_rows, _book_values, _pair_stderr, _stderr,
                                exact_book_values, mc_kernel_oracles, mc_limit_transform,
                                simulate_paths)


def make_name(**overrides):
    base = dict(alpha=0.01, kappa=0.5, sigma=0.2, c=0.2, d=0.2, lambda_hat=0.5,
                xi0=0.02, spread=0.02, loss=0.4)
    base.update(overrides)
    return NameParams(**base)


def make_cps(**overrides):
    side = dict(alpha=0.4, kappa=0.6, sigma=0.3, c=0.3, d=0.3, lambda_hat=0.4, xi0=0.2)
    fields = dict(side_a=CounterpartySide(**side), side_b=CounterpartySide(**side),
                  common_jump=BveParams(1.5, 1.5, 0.0),
                  idio_jump=BveParams(1.5, 1.5, 0.0))
    fields.update(overrides)
    return CounterpartyParams(**fields)


NOJUMP_CFG = LimitConfig(alpha=0.75, kappa=1.5, sigma=0.2, c=0.0, d=0.0,
                         lambda_hat=0.5, x0=0.5, gamma1=1.5, gamma2=1.5,
                         lambda_c=2.5, s_z=0.02, l_z=0.4, r=0.03)


def redraw_defaults(ps, rng=None, thresholds=None):
    """Default times re-derived on the stored sample grid of a simulation of
    the pair alone: the first stored time at which the running intensity
    integral reaches fresh unit-exponential thresholds drawn from ``rng``,
    or the given ``thresholds``; inf if it never does."""

    if ps.integrated is None:
        raise ValueError("Redrawing default times needs the stored intensity integrals, "
                         "which only the counterparty pair alone records.")
    m, _, e = ps.integrated.shape
    if thresholds is None:
        thresholds = rng.standard_exponential((m, e))
    thr = np.broadcast_to(np.asarray(thresholds, dtype=float), (m, e))
    crossed = ps.integrated >= thr[:, None, :]
    return np.where(crossed.any(axis=1), ps.times[np.argmax(crossed, axis=1)], np.inf)


def test_stationary_deterministic_path_is_constant():
    name = make_name(sigma=0.0, c=0.0, d=0.0, lambda_hat=0.0, alpha=0.5 * 0.02)
    ps = simulate_paths(Pool([name]), horizon=1.0, n_paths=4, seed=1, dt=0.01)
    np.testing.assert_allclose(ps.intensities, 0.02, rtol=0, atol=1e-15)


def test_mean_matches_mean_reversion_formula():
    # no jumps: per-name terminal mean is x e^{-kappa T} + alpha (1-e^{-kappa T})/kappa
    cfg = LimitConfig(alpha=0.01, kappa=0.5, sigma=0.01, c=0.0, d=0.0, lambda_hat=0.5,
                      x0=0.02, gamma1=1.5, gamma2=1.5, lambda_c=2.5, s_z=0.02,
                      l_z=0.4, r=0.03)
    K, horizon = 300, 1.0
    pool = build_name_sequence(cfg, K)
    ps = simulate_paths(pool, horizon=horizon, n_paths=500, seed=11, dt=1e-3,
                        sample_times=[horizon])
    terminal = ps.intensities[:, -1, :].mean(axis=1)
    expected = np.mean([n.xi0 * math.exp(-n.kappa * horizon)
                        + n.alpha * (1 - math.exp(-n.kappa * horizon)) / n.kappa
                        for n in pool.names])
    assert abs(terminal.mean() - expected) < 3 * _pair_stderr(terminal)


def test_common_jumps_hit_all_entities_at_same_steps():
    # freeze diffusion and idiosyncratic jumps so increments betray the clock
    names = [make_name(sigma=0.0, alpha=0.0, kappa=1e-12, d=0.0, lambda_hat=0.0,
                       c=c) for c in (0.5, 1.0)]
    cps = make_cps(side_a=CounterpartySide(alpha=0.0, kappa=1e-12, sigma=0.0, c=0.7,
                                           d=0.0, lambda_hat=0.0, xi0=0.1),
                   side_b=CounterpartySide(alpha=0.0, kappa=1e-12, sigma=0.0, c=0.9,
                                           d=0.0, lambda_hat=0.0, xi0=0.1))
    ps = simulate_paths(Pool(names, 30.0, 1.5, 1.5), cps, horizon=1.0, n_paths=8, seed=3,
                        dt=1e-2)
    jumps = np.diff(ps.intensities, axis=1) > 1e-12
    # every entity jumps at exactly the same grid steps on every path
    for j in range(1, ps.n_entities):
        np.testing.assert_array_equal(jumps[:, :, j], jumps[:, :, 0])
    assert jumps.any()


def test_default_times_match_exponential_survival():
    # constant intensity: the doubly stochastic time is plain exponential;
    # with sigma = 0 the paired normals do nothing, so the paths are iid
    lam = 0.3
    name = make_name(sigma=0.0, c=0.0, d=0.0, lambda_hat=0.0, alpha=lam * 1e-12,
                     kappa=1e-12, xi0=lam)
    ps = simulate_paths(Pool([name]), horizon=2.0, n_paths=100_000, seed=5, dt=1e-2,
                        sample_times=[0.0, 2.0])
    for t in (0.5, 1.0, 2.0):
        p_hat = (ps.default_times[:, 0] > t).mean()
        p = math.exp(-lam * t)
        se = math.sqrt(p * (1 - p) / ps.n_paths)
        assert abs(p_hat - p) < 3 * se


def test_forced_infinite_thresholds_mean_no_defaults():
    ps = simulate_paths(Pool((), 2.5, 1.5, 1.5), make_cps(), horizon=1.0, n_paths=50, seed=9,
                        dt=1e-2)
    tau = redraw_defaults(ps, thresholds=np.inf)
    assert np.all(np.isinf(tau))


def test_joint_survival_factorizes_for_independent_entities():
    # two names, no common jumps: defaults are independent
    names = [make_name(xi0=0.4, alpha=0.3, c=0.0), make_name(xi0=0.6, alpha=0.2, c=0.0)]
    ps = simulate_paths(Pool(names, 0.0, 1.5, 1.5), horizon=1.0, n_paths=50_000, seed=13,
                        dt=2e-3, sample_times=[0.0, 1.0])
    t = 1.0
    alive = ps.default_times > t
    i1, i2 = alive[:, 0].astype(float), alive[:, 1].astype(float)
    delta = (i1 * i2).mean() - i1.mean() * i2.mean()
    assert abs(delta) < 4 * _pair_stderr((i1 - i1.mean()) * (i2 - i2.mean()))


def test_conditional_independence_given_frozen_paths():
    # correlated intensities via common jumps, fresh thresholds on frozen
    # paths: joint default indicator matches the product-of-survivals mean
    cps = make_cps()
    ps = simulate_paths(Pool((), 1.0, 1.5, 1.5), cps, horizon=1.0, n_paths=50_000, seed=17,
                        dt=2e-3, sample_times=[0.0, 1.0])
    rng = np.random.default_rng(23)
    tau = redraw_defaults(ps, rng=rng)
    t = 1.0
    alive = (tau > t).astype(float)
    joint = alive[:, 0] * alive[:, 1]
    cond = np.exp(-(ps.integrated[:, -1, 0] + ps.integrated[:, -1, 1]))
    se = _pair_stderr(joint) + _pair_stderr(cond)
    assert abs(joint.mean() - cond.mean()) < 4 * se


def test_intensities_stay_nonnegative_with_jumps():
    names = [make_name(sigma=0.6, xi0=0.01) for _ in range(5)]
    ps = simulate_paths(Pool(names, 2.5, 1.5, 1.5), make_cps(), horizon=1.0, n_paths=300,
                        seed=19, dt=1e-3)
    assert ps.intensities.min() >= 0.0


def test_fourth_moment_bounded_along_pool_ladder():
    # the ladder shrinks toward the limit, so the pool-averaged fourth
    # moment cannot grow with K
    cfg = NOJUMP_CFG
    est = {}
    for K in (10, 300):
        ps = simulate_paths(build_name_sequence(cfg, K), horizon=1.0, n_paths=200, seed=29,
                            dt=2e-3, sample_times=np.linspace(0, 1, 11))
        est[K] = (ps.intensities**4).mean(axis=(0, 2)).max()
    assert est[300] <= 2.0 * est[10]


def test_bit_reproducibility_and_worker_invariance():
    pool = build_name_sequence(NOJUMP_CFG, 7)  # lambda_c 2.5, gamma1 = gamma2 = 1.5
    kw = dict(horizon=0.5, n_paths=600, seed=31, dt=1e-3)
    a = simulate_paths(pool, make_cps(), **kw)
    b = simulate_paths(pool, make_cps(), **kw)
    c = simulate_paths(pool, make_cps(), workers=4, **kw)
    for other in (b, c):
        np.testing.assert_array_equal(a.intensities, other.intensities)
        np.testing.assert_array_equal(a.default_times, other.default_times)
        np.testing.assert_array_equal(a.thresholds, other.thresholds)


def test_names_and_pair_pinned():
    # pinned stream layout (antithetic normals, per-path thresholds and
    # jumps) and Euler arithmetic for a system with names: both jump layers
    # on every entity; SHA-256 of the raw float64 bytes
    digests = ("bc21d9bac82241e4ad47a03a960bc4d4c37df21b170226a0b6044f4e2ac2f028",
               "c4dcf2a5455f63a7bbe325008456516e4ef2405d8144a1d3f09d3256da745936",
               "e490def82ff9626acfd806526c5decae152b7de86af3388833389c2cc47e5a57")
    names = [make_name(xi0=0.01 * (k + 1), sigma=0.1 + 0.05 * k) for k in range(3)]
    ps = simulate_paths(Pool(names, 2.5, 1.5, 1.5), make_cps(), horizon=0.5, n_paths=600,
                        seed=31, dt=1e-3, workers=2)
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for a in (ps.intensities, ps.default_times, ps.thresholds))
    assert got == digests


def test_one_step_mirrors_each_pair_of_paths():
    # jumps off, every path from one state: one Euler step moves path 2k by
    # drift + noise and path 2k + 1 by drift - noise, so the pair sums to
    # twice the drift step; the noise itself is fresh for each pair
    dt = 1e-3
    names = [make_name(xi0=0.5, alpha=0.3, kappa=0.8, sigma=0.4, c=0.0, d=0.0,
                       lambda_hat=0.0)]
    ps = simulate_paths(Pool(names), horizon=dt, n_paths=300, seed=83, dt=dt,
                        sample_times=[dt])
    x = ps.intensities[:, 0, 0]
    drift = 0.5 + (0.3 - 0.8 * 0.5) * dt
    np.testing.assert_allclose(x[0::2] + x[1::2], 2 * drift, rtol=0, atol=1e-15)
    noise = x[0::2] - drift
    assert np.all(noise != 0.0) and len(np.unique(noise)) == len(noise)


def test_pair_stderr_clusters_each_pair():
    rng = np.random.default_rng(97)
    vals = rng.standard_normal(10)
    # an even count: the plain stderr of the five pair means
    assert _pair_stderr(vals) == pytest.approx(_stderr(vals.reshape(5, 2).mean(axis=1)),
                                               rel=1e-13)
    # an odd count: the last path is a cluster of its own
    odd = vals[:9]
    dev = odd - odd.mean()
    sums = np.array([dev[0:2].sum(), dev[2:4].sum(), dev[4:6].sum(), dev[6:8].sum(),
                     dev[8]])
    assert _pair_stderr(odd) == pytest.approx(math.sqrt(5 / 4 * np.sum(sums ** 2)) / 9,
                                              rel=1e-13)
    # perfectly mirrored pairs carry no noise; one cluster has no stderr
    assert _pair_stderr(np.array([1.0, -1.0, 2.0, -2.0])) == 0.0
    assert _pair_stderr(np.array([0.3])) == 0.0
    assert _pair_stderr(np.array([0.3, 0.7])) == 0.0


def test_paths_invariant_to_total_path_count():
    pool = Pool([make_name()], 2.5, 1.5, 1.5)
    kw = dict(horizon=0.5, seed=37, dt=1e-3)
    big = simulate_paths(pool, n_paths=700, **kw)
    small = simulate_paths(pool, n_paths=123, **kw)
    np.testing.assert_array_equal(big.intensities[:123], small.intensities)
    np.testing.assert_array_equal(big.default_times[:123], small.default_times)


def test_config_errors():
    with pytest.raises(ConfigError):
        simulate_paths(Pool([]), horizon=1.0, n_paths=1, seed=1)
    with pytest.raises(ConfigError):
        make_name(alpha=float("nan"))
    with pytest.raises(ConfigError):
        simulate_paths(Pool([make_name()]), horizon=1.0, n_paths=1, seed=1, dt=0.3)
    with pytest.raises(ConfigError):
        simulate_paths(Pool([make_name()]), horizon=1.0, n_paths=1, seed=1,
                       sample_times=[0.123456])  # off the grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning before the check
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="sample_times must be finite"):
                simulate_paths(Pool([make_name()]), horizon=1.0, n_paths=1, seed=1,
                               sample_times=[0.5, bad])
    ps = simulate_paths(Pool([make_name()]), horizon=1.0, n_paths=3, seed=1, dt=0.01)
    with pytest.raises(ValueError):
        redraw_defaults(ps, thresholds=np.inf)


@pytest.mark.parametrize("field, value, message", [
    ("lambda_c", -1.0, "Require lambda_c >= 0"), ("gamma1", 0.0, "gamma1, gamma2 > 0"),
    ("gamma1", -1.0, "gamma1, gamma2 > 0"), ("gamma2", 0.0, "gamma1, gamma2 > 0"),
    ("lambda_c", math.nan, "must be finite"), ("lambda_c", math.inf, "must be finite"),
    ("gamma1", math.inf, "must be finite"), ("gamma2", math.nan, "must be finite"),
    ("gamma2", -math.inf, "must be finite"),
])
def test_pool_rejects_a_bad_jump_law(field, value, message):
    # the engines' jump-parameter checks live in the Pool alone
    law = dict(lambda_c=2.5, gamma1=1.5, gamma2=1.5) | {field: value}
    for names in ([make_name()], ()):
        with pytest.raises(ConfigError, match=message):
            Pool(names, **law)


def test_pool_lays_out_each_name_field_and_the_jump_layers():
    names = [make_name(z=-1, xi0=0.03), make_name(kappa=0.7, spread=0.05, loss=0.6)]
    pool = Pool(names, 2.5, 1.5, 3.0)
    assert pool.names == tuple(names)
    for f in fields(NameParams):
        arr = getattr(pool, f.name)
        assert arr.dtype == float
        np.testing.assert_array_equal(arr, [getattr(n, f.name) for n in names])
    (rate_c, ell_c, gamma_c), (rate_i, ell_i, gamma_i) = pool.layers
    assert (rate_c, gamma_c, gamma_i) == (2.5, 1.5, 3.0)
    np.testing.assert_array_equal(rate_i, pool.lambda_hat)
    np.testing.assert_array_equal(ell_c, pool.c)
    np.testing.assert_array_equal(ell_i, pool.d)
    # no names: empty arrays, and the defaults carry no common clock
    empty = Pool(())
    assert (empty.lambda_c, empty.gamma1, empty.gamma2) == (0.0, 1.0, 1.0)
    assert empty.kappa.shape == (0,)


@pytest.mark.parametrize("cls", [NameParams, CounterpartySide])
def test_intensity_types_reject_nan_in_every_field(cls):
    # one validator: its finiteness test runs over all of the type's fields,
    # spread and loss included for a name
    base = dict(alpha=0.01, kappa=0.5, sigma=0.2, c=0.2, d=0.2, lambda_hat=0.5, xi0=0.02)
    if cls is NameParams:
        base.update(spread=0.02, loss=0.4)
    cls(**base)
    for f in fields(cls):
        with pytest.raises(ConfigError, match=f"{cls.__name__} fields must be finite"):
            cls(**base | {f.name: math.nan})


def test_name_params_extends_the_counterparty_side():
    # a name is a side plus its contract terms, in the same field order
    assert issubclass(NameParams, CounterpartySide)
    side_fields = [f.name for f in fields(CounterpartySide)]
    assert [f.name for f in fields(NameParams)] == side_fields + ["spread", "loss", "z"]
    assert NameParams(0.01, 0.5, 0.2, 0.2, 0.2, 0.5, 0.02, 0.02, 0.4) == make_name()
    for bad in (dict(loss=1.5), dict(z=0), dict(xi0=-1.0), dict(kappa=0.0)):
        with pytest.raises(ConfigError):
            make_name(**bad)


def test_mc_exposure_vanishes_at_maturity():
    values = exact_book_values(build_name_sequence(NOJUMP_CFG, 5), sample_times=[0.0, 0.5, 1.0],
                               maturity=1.0, r=0.03, n_paths=50, seed=41)
    assert values.shape == (3, 50)
    assert np.all(values[-1] == 0.0) and _stderr(values[-1]) == 0.0


def test_mc_exposure_deterministic_intensity_oracle():
    # sigma = 0, no jumps: the exact engine draws the flow x_t, and the book
    # value at t follows the deterministic hazard from there to maturity
    x0, alpha, kappa, spread, loss, r, horizon = 0.05, 0.03, 0.8, 0.02, 0.4, 0.03, 2.0
    name = NameParams(alpha=alpha, kappa=kappa, sigma=0.0, c=0.0, d=0.0,
                      lambda_hat=0.0, xi0=x0, spread=spread, loss=loss)
    values = exact_book_values(Pool([name], 0.0, 1.5, 1.5), sample_times=[0.0, 0.5],
                               maturity=horizon, r=r, n_paths=1, seed=43)
    for est, t in zip(values[:, 0], (0.0, 0.5)):
        x_t = x0 * math.exp(-kappa * t) - alpha / kappa * math.expm1(-kappa * t)
        span = horizon - t

        def survival(s):
            integ = ((x_t - alpha / kappa) * (1 - np.exp(-kappa * s)) / kappa
                     + alpha * s / kappa)
            return np.exp(-integ)

        integral = composite_simpson(lambda s: np.exp(-r * s) * survival(s),
                                     0.0, span, 4000)
        oracle = (loss * (math.exp(-r * span) * survival(span) - 1.0)
                  + (spread + r * loss) * integral)
        assert est == pytest.approx(oracle, rel=1e-6)


def test_mc_exposure_tracks_limit_for_moderate_pool():
    # every name carries the contract terms s_z / l_z, so the remaining
    # K = 50 bias comes from the intensity ladder, of order H_K / K: about
    # -3.4% of the curve scale at t = 0 (exact there) and -1.2% at t = 0.5;
    # the K = 300 / 2% version belongs to the acceptance suite
    cfg = NOJUMP_CFG
    K, horizon = 50, 1.0
    values = exact_book_values(build_name_sequence(cfg, K), sample_times=[0.0, 0.5],
                               maturity=horizon, r=cfg.r, n_paths=500, seed=47)
    scale = abs(exposure_limit(0.0, horizon, cfg))
    for vals, t in zip(values, (0.0, 0.5)):
        est, se = vals.mean(), _stderr(vals)
        limit = exposure_limit(t, horizon, cfg)
        assert abs(est - limit) <= 0.10 * scale + 3 * se


def pair_to(u, cps=None, lambda_c=0.25, n_paths=10, seed=1):
    """The pair alone simulated on 1000 steps to lag u, stored at u only."""
    return simulate_paths(Pool((), lambda_c), cps or make_cps(), horizon=u,
                          n_paths=n_paths, seed=seed, sample_times=[u])


def test_mc_h1_oracle_short_horizon_recovers_initial_intensity():
    cps = make_cps()
    cps = replace(cps, side_a=replace(cps.side_a, xi0=0.2), side_b=replace(cps.side_b, xi0=0.3))
    ps = pair_to(1e-3, cps, n_paths=2000, seed=53)
    (est, se), _, _ = mc_kernel_oracles(ps, 1e-3)
    assert est == pytest.approx(0.3, rel=2e-2)


def test_mc_h1_oracle_matches_transform_derivative():
    # side A frozen at zero, side B a plain square-root diffusion: the
    # kernel is the theta-derivative of the terminal-value transform
    alpha_b, kappa_b, sigma_b, x_b, u = 0.3, 0.7, 0.25, 0.4, 1.0
    cps = CounterpartyParams(
        side_a=CounterpartySide(alpha=0.0, kappa=1.0, sigma=0.0, c=0.0, d=0.0,
                                lambda_hat=0.0, xi0=0.0),
        side_b=CounterpartySide(alpha=alpha_b, kappa=kappa_b, sigma=sigma_b, c=0.0,
                                d=0.0, lambda_hat=0.0, xi0=x_b),
        common_jump=BveParams(1.5, 1.5, 0.0), idio_jump=BveParams(1.5, 1.5, 0.0))

    def transform(theta):
        if theta == 0.0:
            from cdspool.riccati import integral_b, riccati_b
            return math.exp(alpha_b * integral_b(kappa_b, sigma_b, u)
                            + riccati_b(kappa_b, sigma_b, u) * x_b)
        return math.exp(alpha_b * integral_beta(kappa_b, sigma_b, theta, u)
                        + riccati_beta(kappa_b, sigma_b, theta, u) * x_b)

    h = 1e-5
    fd = (transform(0.0) - transform(-h)) / h  # one-sided: theta must stay <= 0
    (est, se), _, _ = mc_kernel_oracles(pair_to(u, cps, 0.0, 40_000, 59), u)
    assert abs(est - fd) < 3 * se


def test_mc_kernel_oracles_equal_separate_runs_at_gate_arguments():
    # pinned stream layout: the gate's one pair simulation (1002 steps of
    # 1/334 to maturity 3 in 4096-path blocks of antithetic pairs) gives
    # exactly these kernel and nested-CVA estimates and pair-clustered
    # stderrs; a change of step, horizon, block width or pairing moves them
    from cdspool.harness import _pair_values
    mc = {name: est for name, (_, est) in _pair_values().items()}
    assert mc == {"h1": (0.2363637465351626, 0.0004294184940628182),
                  "h2": (0.23530186021234234, 0.00042100392201793475),
                  "joint_survival": (0.48587323221768347, 0.0004732206136859496),
                  "cva": (0.001868064634260288, 1.4472263147913609e-05)}


def test_mc_limit_transform_pinned_at_gate_arguments():
    # the gate's limit-SDE oracle: its five 4096-path blocks of antithetic
    # pairs on 1000 Euler steps give exactly these values
    from cdspool.harness import _LIMIT_ORACLE_PATHS, VALIDATION_SEED, _validation_baseline
    cfg, _, _ = _validation_baseline()
    est = mc_limit_transform(1.5, cfg, n_paths=_LIMIT_ORACLE_PATHS,
                             seed=VALIDATION_SEED + 11)
    assert est == (0.9521192420779284, 0.00018203144765617732)


# a limit diffusion with both jump drifts at 0.1
LIMIT_CFG = LimitConfig(alpha=0.5, kappa=1.5, sigma=0.2, c=0.1, d=0.1, lambda_hat=1.0,
                        x0=0.5, gamma1=1.5, gamma2=1.5, lambda_c=1.0, s_z=0.02,
                        l_z=0.4, r=0.03)


def test_mc_limit_transform_caps_the_lag_at_1000_mean_reversion_times():
    # the Euler step u / 1000 may not exceed 1 / kappa; a lag of 1e300 used
    # to overflow in the step and return (0.0, 0.0)
    cap = 1000 / LIMIT_CFG.kappa
    for u in (1e300, cap * (1 + 1e-12)):
        with pytest.raises(ConfigError, match=f"at most 1000 / kappa = {cap:g}"):
            mc_limit_transform(u, LIMIT_CFG, n_paths=4, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se = mc_limit_transform(cap, LIMIT_CFG, n_paths=4, seed=1)
    assert 0.0 <= est <= 1.0 and se >= 0.0


def test_oracles_reject_empty_runs():
    for n in (0, -3):
        with pytest.raises(ConfigError, match="n_paths"):
            mc_limit_transform(1.0, LIMIT_CFG, n_paths=n, seed=1)
        # the kernel oracles read a pair simulation, which rejects it first
        with pytest.raises(ConfigError, match="n_paths"):
            pair_to(1.0, n_paths=n)


@pytest.mark.parametrize("field, value", [
    ("u", float("inf")), ("u", float("nan")), ("u", 0.0), ("u", -1.0),
    ("alpha", float("nan")), ("alpha", -0.1),
    ("kappa", float("inf")), ("kappa", 0.0), ("kappa", -1.5),
    ("sigma", float("nan")), ("sigma", -0.2),
    ("c", -0.1), ("d", -0.1), ("c", float("nan")), ("d", float("nan")),
    ("gamma1", 0.0), ("gamma1", -1.0), ("gamma2", 0.0), ("gamma2", float("inf")),
    ("x0", -1e-3), ("x0", float("nan")), ("x0", float("inf")),
])
def test_oracles_reject_bad_input(field, value):
    # both oracles check the lag u (the kernel oracles take only a stored
    # one); the limit oracle's diffusion is a LimitConfig, which rejects a
    # bad field when it is built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if field != "u":
            with pytest.raises(ConfigError):
                replace(LIMIT_CFG, **{field: value})
            return
        with pytest.raises(ConfigError, match="u must be"):
            mc_limit_transform(value, LIMIT_CFG, n_paths=10, seed=1)
        with pytest.raises(ValueError, match="not a stored sample time"):
            mc_kernel_oracles(pair_to(1.0), value)


def test_oracles_report_zero_stderr_for_one_path():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se = mc_limit_transform(1.0, LIMIT_CFG, n_paths=1, seed=1)
        kernels = mc_kernel_oracles(pair_to(1.0, n_paths=1), 1.0)
    assert 0.0 < est < 1.0 and se == 0.0
    for est, se in kernels:
        assert math.isfinite(est) and se == 0.0


def test_kernel_oracles_read_only_a_pair_simulation():
    # the running integrals exist only for the pair alone, and the lag must be stored
    law, kw = dict(lambda_c=1.0, gamma1=1.5, gamma2=1.5), dict(n_paths=8, seed=71)
    ps = simulate_paths(Pool([make_name()], **law), make_cps(), horizon=1.0, dt=1e-2, **kw)
    with pytest.raises(ValueError, match="pair alone"):
        mc_kernel_oracles(ps, 1.0)
    ps = simulate_paths(Pool((), **law), make_cps(), horizon=1.0, dt=1e-2,
                        sample_times=[0.5, 1.0], **kw)
    assert mc_kernel_oracles(ps, 0.5) != mc_kernel_oracles(ps, 1.0)
    with pytest.raises(ValueError, match="not a stored sample time"):
        mc_kernel_oracles(ps, 0.25)


def test_integrals_recorded_for_the_pair_alone():
    # only the pair's kernel oracle reads the running integrals
    law = dict(lambda_c=1.0, gamma1=1.5, gamma2=1.5)
    kw = dict(horizon=0.5, n_paths=8, seed=67, dt=1e-2)
    pair = simulate_paths(Pool((), **law), make_cps(), **kw)
    assert pair.integrated is not None
    assert pair.integrated.shape == pair.intensities.shape
    for cps in (None, make_cps()):
        ps = simulate_paths(Pool([make_name()], **law), cps, **kw)
        assert ps.integrated is None
        with pytest.raises(ValueError, match="only the counterparty pair alone records"):
            redraw_defaults(ps, thresholds=np.inf)


def test_pathset_bookkeeping():
    ps = simulate_paths(Pool((), 1.0, 1.5, 1.5), make_cps(), horizon=1.0, n_paths=10, seed=61,
                        dt=1e-2)
    assert ps.n_names == 0 and ps.n_entities == 2
    assert ps.time_index(0.5) == 50
    # off the grid or not finite; a NaN t compares false with every bound
    for t in (0.505, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not a stored sample time"):
            ps.time_index(t)
    # stored integral equals a trapezoid over the stored full-resolution path
    manual = np.trapezoid(ps.intensities[0, :, 0], dx=ps.dt)
    assert ps.integrated[0, -1, 0] == pytest.approx(manual, rel=1e-12)


def _quadrature_exposure(ps, pool, t, maturity, r, n_panels=2048):
    """The mean book value at t computed by quadrature alone: the survival
    exponent A0 as a cumulative Simpson integral of its Riccati integrand
    and the premium leg as composite Simpson, both on ``n_panels`` uniform
    panels."""

    K = ps.n_names
    x_t = ps.intensities[:, ps.time_index(t), :K]
    span = maturity - t
    u = np.linspace(0.0, span, n_panels + 1)
    b = np.column_stack([riccati_b(n.kappa, n.sigma, u) for n in pool.names])
    integrand = (pool.alpha * b
                 + pool.lambda_c * (mgf_exp(pool.c * b, pool.gamma1) - 1.0)
                 + pool.lambda_hat * (mgf_exp(pool.d * b, pool.gamma2) - 1.0))
    a = cumulative_simpson(integrand, dx=span / n_panels, axis=0, initial=0.0)
    weights = simpson_weights(n_panels, span / n_panels) * np.exp(-r * u)
    coeff_spread = pool.z * (pool.spread + r * pool.loss) / K
    coeff_loss = pool.z * pool.loss / K
    eps = (math.exp(-r * span) * (np.exp(a[-1] + b[-1] * x_t) @ coeff_loss)
           - coeff_loss.sum())
    for j in range(n_panels + 1):
        eps = eps + weights[j] * (np.exp(a[j] + b[j] * x_t) @ coeff_spread)
    return float(eps.mean())


@pytest.mark.parametrize("maturity", [1, 3, 30])
def test_mc_exposure_matches_quadrature_reference(maturity):
    # closed-form exponent + 16-node Gauss-Legendre premium leg against the
    # 2048-panel Simpson construction, on a jump book with short names; the
    # 30-year span is where the fixed rule is weakest
    pool = Pool([make_name(z=z, xi0=0.02 * (1 + k), kappa=0.5 + 0.1 * k,
                           sigma=0.1 + 0.05 * k, spread=0.01 + 0.005 * k, loss=0.3 + 0.05 * k)
                 for k, z in enumerate([1, -1, 1, 1, -1, 1])], 2.5, 1.5, 1.5)
    ps = simulate_paths(pool, horizon=1.0, n_paths=64, seed=73, dt=1e-2,
                        sample_times=[0.0, 0.5, 1.0])
    for t in (0.0, 0.5, 1.0):
        x_t = ps.intensities[:, ps.time_index(t)]
        est = _book_values(x_t, *_book_rows(pool, maturity, 0.03)).mean()
        ref = _quadrature_exposure(ps, pool, t, t + maturity, 0.03)
        assert abs(est - ref) <= 1e-9


def test_short_book_negates_long_book():
    # s_z, l_z <= 0 builds the mirror book: same intensities, z = -1
    long_cfg = replace(NOJUMP_CFG, c=0.2, d=0.2)
    short_cfg = replace(long_cfg, s_z=-long_cfg.s_z, l_z=-long_cfg.l_z)
    long_pool = build_name_sequence(long_cfg, 7)
    short_pool = build_name_sequence(short_cfg, 7)
    assert all(n.z == -1 for n in short_pool.names)
    long_book, short_book = (
        exact_book_values(pool, sample_times=[0.0, 0.5], maturity=1.0, r=long_cfg.r,
                          n_paths=40, seed=79)
        for pool in (long_pool, short_pool))
    np.testing.assert_array_equal(short_book, -long_book)
    assert exposure_limit(0.0, 1.0, short_cfg) == -exposure_limit(0.0, 1.0, long_cfg)
    with pytest.raises(ConfigError, match="mixed-sign"):
        build_name_sequence(replace(long_cfg, l_z=-0.4), 3)
