import hashlib
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from cdspool.errors import ConfigError
from cdspool.exposure import LimitConfig, build_name_sequence, exposure_limit, survival_fhat
from cdspool.harness import _validation_baseline
from cdspool.jumps import BveParams, mgf_exp
from cdspool.quadrature import composite_simpson, simpson_weights
from cdspool.riccati import integral_b, integral_beta, riccati_b, riccati_beta
from cdspool.simulation import (CounterpartyParams, CounterpartySide, NameParams, Pool,
                                _book_rows, _book_values, _Entities, _expansion_sums,
                                _integrated_cir, _jump_events, _pair_stderr, _richardson,
                                _stderr, exact_book_values, map_ordered, mc_limit_transform)

from euler_paths import default_times, kernel_oracles, stored_paths
from oracles import euler_limit_transform


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


def test_stationary_deterministic_path_is_constant():
    name = make_name(sigma=0.0, c=0.0, d=0.0, lambda_hat=0.0, alpha=0.5 * 0.02)
    ps = stored_paths(Pool([name]), horizon=1.0, n_paths=4, seed=1, dt=0.01)
    np.testing.assert_allclose(ps.intensities, 0.02, rtol=0, atol=1e-15)


def test_mean_matches_mean_reversion_formula():
    # no jumps: per-name terminal mean is x e^{-kappa T} + alpha (1-e^{-kappa T})/kappa
    cfg = LimitConfig(alpha=0.01, kappa=0.5, sigma=0.01, c=0.0, d=0.0, lambda_hat=0.5,
                      x0=0.02, gamma1=1.5, gamma2=1.5, lambda_c=2.5, s_z=0.02,
                      l_z=0.4, r=0.03)
    K, horizon = 300, 1.0
    pool = build_name_sequence(cfg, K)
    ps = stored_paths(pool, horizon=horizon, n_paths=500, seed=11, dt=1e-3,
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
    ps = stored_paths(Pool(names, 30.0, 1.5, 1.5), cps, horizon=1.0, n_paths=8, seed=3,
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
    times = (0.5, 1.0, 2.0)
    ps = stored_paths(Pool([name]), horizon=2.0, n_paths=100_000, seed=5, dt=1e-2,
                      sample_times=times)
    for i, t in enumerate(times):
        p_hat = (ps.integrated[:, i, 0] < ps.thresholds[:, 0]).mean()
        p = math.exp(-lam * t)
        se = math.sqrt(p * (1 - p) / ps.n_paths)
        assert abs(p_hat - p) < 3 * se


def test_forced_infinite_thresholds_mean_no_defaults():
    ps = stored_paths(Pool((), 2.5, 1.5, 1.5), make_cps(), horizon=1.0, n_paths=50, seed=9,
                      dt=1e-2)
    assert np.all(np.isinf(default_times(ps, thresholds=np.inf)))


def test_joint_survival_factorizes_for_independent_entities():
    # two names, no common jumps: defaults are independent
    names = [make_name(xi0=0.4, alpha=0.3, c=0.0), make_name(xi0=0.6, alpha=0.2, c=0.0)]
    ps = stored_paths(Pool(names, 0.0, 1.5, 1.5), horizon=1.0, n_paths=50_000, seed=13,
                      dt=2e-3, sample_times=[0.0, 1.0])
    alive = ps.integrated[:, -1] < ps.thresholds  # survival to t = 1
    i1, i2 = alive[:, 0].astype(float), alive[:, 1].astype(float)
    delta = (i1 * i2).mean() - i1.mean() * i2.mean()
    assert abs(delta) < 4 * _pair_stderr((i1 - i1.mean()) * (i2 - i2.mean()))


def test_conditional_independence_given_frozen_paths():
    # correlated intensities via common jumps, fresh thresholds on frozen
    # paths: joint default indicator matches the product-of-survivals mean
    cps = make_cps()
    ps = stored_paths(Pool((), 1.0, 1.5, 1.5), cps, horizon=1.0, n_paths=50_000, seed=17,
                      dt=2e-3, sample_times=[0.0, 1.0])
    fresh = np.random.default_rng(23).standard_exponential((ps.n_paths, 2))
    alive = (ps.integrated[:, -1] < fresh).astype(float)  # survival to t = 1
    joint = alive[:, 0] * alive[:, 1]
    cond = np.exp(-(ps.integrated[:, -1, 0] + ps.integrated[:, -1, 1]))
    se = _pair_stderr(joint) + _pair_stderr(cond)
    assert abs(joint.mean() - cond.mean()) < 4 * se


def test_intensities_stay_nonnegative_with_jumps():
    names = [make_name(sigma=0.6, xi0=0.01) for _ in range(5)]
    ps = stored_paths(Pool(names, 2.5, 1.5, 1.5), make_cps(), horizon=1.0, n_paths=300,
                      seed=19, dt=1e-3)
    assert ps.intensities.min() >= 0.0


def test_fourth_moment_bounded_along_pool_ladder():
    # the ladder shrinks toward the limit, so the pool-averaged fourth
    # moment cannot grow with K
    cfg = NOJUMP_CFG
    est = {}
    for K in (10, 300):
        ps = stored_paths(build_name_sequence(cfg, K), horizon=1.0, n_paths=200, seed=29,
                          dt=2e-3, sample_times=np.linspace(0, 1, 11))
        est[K] = (ps.intensities**4).mean(axis=(0, 2)).max()
    assert est[300] <= 2.0 * est[10]


def test_bit_reproducibility_and_worker_invariance():
    pool = build_name_sequence(NOJUMP_CFG, 7)  # lambda_c 2.5, gamma1 = gamma2 = 1.5
    kw = dict(horizon=0.5, n_paths=600, seed=31, dt=1e-3)
    a = stored_paths(pool, make_cps(), **kw)
    b = stored_paths(pool, make_cps(), **kw)
    c = stored_paths(pool, make_cps(), workers=4, **kw)
    for other in (b, c):
        np.testing.assert_array_equal(a.intensities, other.intensities)
        np.testing.assert_array_equal(a.integrated, other.integrated)
        np.testing.assert_array_equal(a.thresholds, other.thresholds)


def test_names_and_pair_pinned():
    # pinned stream layout (antithetic normals, per-path thresholds and
    # jumps) and Euler arithmetic for a system with names: both jump layers
    # on every entity; SHA-256 of the raw float64 bytes of the intensities,
    # running integrals and thresholds, then of the default times derived
    # from this store of every node (each a crossing node's index times dt)
    digests = ("bc21d9bac82241e4ad47a03a960bc4d4c37df21b170226a0b6044f4e2ac2f028",
               "a06e80443d1847def40edefdc70211001841a4d24091cdaab0802951097f3fb1",
               "e490def82ff9626acfd806526c5decae152b7de86af3388833389c2cc47e5a57",
               "c4dcf2a5455f63a7bbe325008456516e4ef2405d8144a1d3f09d3256da745936")
    names = [make_name(xi0=0.01 * (k + 1), sigma=0.1 + 0.05 * k) for k in range(3)]
    ps = stored_paths(Pool(names, 2.5, 1.5, 1.5), make_cps(), horizon=0.5, n_paths=600,
                      seed=31, dt=1e-3, workers=2)
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for a in (ps.intensities, ps.integrated, ps.thresholds, default_times(ps)))
    assert got == digests


def test_pair_alone_fine_path_pinned():
    # the fine Euler path of the pair alone (two 4096-path blocks, both jump
    # layers, a correlated common jump): SHA-256 of its stored intensities,
    # running integrals and thresholds, which the coupled coarse path
    # stepped beside it must leave untouched, then of the default times
    # derived from this store of every node
    digests = ("f48d9e6453930904d82b6e6e905d7e48739d538c05cf4e18aeb5730105370421",
               "129badd47b6c1b5e8e22a7f057c85b64a94261e226ab1f8b8684670b44d43ad1",
               "5398e8f5b5670e9365413dbc6211475a6ef502efe4a5430266b47e6f69b11992",
               "40215e3711104c7e7333c613cf5aaf6b4bd08478d258cedbaf3dfd99bf183cfc")
    cps = make_cps(common_jump=BveParams(1.5, 2.0, 0.5))
    ps = stored_paths(Pool((), 2.5), cps, horizon=0.5, n_paths=4200, seed=41, dt=1e-2,
                      workers=2)
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for a in (ps.intensities, ps.integrated, ps.thresholds, default_times(ps)))
    assert got == digests


def test_jump_clocks_of_rate_zero_draw_nothing():
    # with lambda_c = 0 and every lambda_hat = 0 the sampler returns no
    # event and leaves the stream where it found it, so an engine that has
    # no jumps draws the same diffusion as if it never called it
    side = CounterpartySide(alpha=0.4, kappa=0.6, sigma=0.3, c=0.3, d=0.3, lambda_hat=0.0,
                            xi0=0.2)
    cps = make_cps(side_a=side, side_b=side, common_jump=BveParams(1.5, 2.0, 0.5))
    names = [make_name(lambda_hat=0.0), make_name(lambda_hat=0.0, c=0.5)]
    for pool, pair in ((Pool(names), cps), (Pool(()), cps), (Pool(names), None)):
        rng = np.random.Generator(np.random.Philox(7))
        events = _jump_events(rng, _Entities(pool, pair, 2.0), 256)
        assert all(len(e) == 0 for e in events)
        np.testing.assert_array_equal(rng.random(8),
                                      np.random.Generator(np.random.Philox(7)).random(8))


def test_jump_events_follow_the_jump_law():
    # two names and the pair on both clocks: counts per path and element,
    # uniform times, size means (c / gamma1 for a name's common size, c
    # over the marginal rate for a side's, d / idio_rate for an
    # idiosyncratic size) and the Marshall-Olkin correlation, each within
    # z = 4 of the law
    names = [make_name(c=0.2, d=0.3, lambda_hat=0.5), make_name(c=0.5, d=0.1, lambda_hat=1.5)]
    sides = [CounterpartySide(alpha=0.4, kappa=0.6, sigma=0.3, c=c, d=d, lambda_hat=lam,
                              xi0=0.2) for c, d, lam in ((0.3, 0.4, 0.8), (0.6, 0.2, 0.4))]
    cps = make_cps(side_a=sides[0], side_b=sides[1], common_jump=BveParams(1.5, 2.0, 0.5),
                   idio_jump=BveParams(1.0, 2.0, 0.7))
    pool = Pool(names, 2.0, 1.5, 3.0)
    horizon, rows, E = 2.0, 4096, 4
    ent = _Entities(pool, cps, horizon)
    np.testing.assert_array_equal(ent.idio_rate, [3.0, 3.0, 1.7, 2.7])
    rng = np.random.Generator(np.random.Philox(3401))
    crow, cu, csize, elem, iu, isize = _jump_events(rng, ent, rows)
    z = []
    counts = np.bincount(crow, minlength=rows)
    mean = 2.0 * horizon
    z.append((counts.mean() - mean) / math.sqrt(mean / rows))
    idio = np.bincount(elem, minlength=rows * E).reshape(rows, E)
    for j, lam in enumerate(ent.lambda_hat):
        z.append((idio[:, j].mean() - lam * horizon) / math.sqrt(lam * horizon / rows))
    for u in (cu, iu):
        z.append((u.mean() - 0.5) / math.sqrt(1.0 / (12.0 * len(u))))
    col = elem % E
    rates = [1.5, 1.5, cps.common_jump.marginal_rate_a, cps.common_jump.marginal_rate_b]
    for j in range(E):
        for y, want in ((csize[:, j], ent.c[j] / rates[j]),
                        (isize[col == j], ent.d[j] / ent.idio_rate[j])):
            z.append((y.mean() - want) / _stderr(y))
    rho = np.corrcoef(csize[:, 2], csize[:, 3])[0, 1]
    want = cps.common_jump.correlation
    z.append((rho - want) / ((1.0 - rho * rho) / math.sqrt(len(crow))))
    assert len(crow) > 10_000 and np.all(csize > 0.0) and np.all(isize > 0.0)
    assert np.max(np.abs(z)) <= 4.0, z


def test_one_step_mirrors_each_pair_of_paths():
    # jumps off, every path from one state: one Euler step moves path 2k by
    # drift + noise and path 2k + 1 by drift - noise, so the pair sums to
    # twice the drift step; the noise itself is fresh for each pair
    dt = 1e-3
    names = [make_name(xi0=0.5, alpha=0.3, kappa=0.8, sigma=0.4, c=0.0, d=0.0,
                       lambda_hat=0.0)]
    ps = stored_paths(Pool(names), horizon=dt, n_paths=300, seed=83, dt=dt,
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
    big = stored_paths(pool, n_paths=700, **kw)
    small = stored_paths(pool, n_paths=123, **kw)
    np.testing.assert_array_equal(big.intensities[:123], small.intensities)
    np.testing.assert_array_equal(big.integrated[:123], small.integrated)
    np.testing.assert_array_equal(big.thresholds[:123], small.thresholds)


def test_config_errors():
    with pytest.raises(ConfigError):
        stored_paths(Pool([]), horizon=1.0, n_paths=1, seed=1)
    with pytest.raises(ConfigError):
        make_name(alpha=float("nan"))
    with pytest.raises(ConfigError):
        stored_paths(Pool([make_name()]), horizon=1.0, n_paths=1, seed=1, dt=0.3)
    with pytest.raises(ConfigError):
        stored_paths(Pool([make_name()]), horizon=1.0, n_paths=1, seed=1,
                     sample_times=[0.123456])  # off the grid
    # one visit per sample slot: no time twice, not even through rounding to a node
    for bad in ([], [0.5, 0.5], [0.5, 0.5 + 1e-12]):
        with pytest.raises(ConfigError, match="distinct grid times"):
            stored_paths(Pool([make_name()]), horizon=1.0, n_paths=1, seed=1, sample_times=bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning before the check
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="sample_times must be finite"):
                stored_paths(Pool([make_name()]), horizon=1.0, n_paths=1, seed=1,
                             sample_times=[0.5, bad])


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
    return stored_paths(Pool((), lambda_c), cps or make_cps(), horizon=u,
                        n_paths=n_paths, seed=seed, sample_times=[u])


def test_mc_h1_oracle_short_horizon_recovers_initial_intensity():
    cps = make_cps()
    cps = replace(cps, side_a=replace(cps.side_a, xi0=0.2), side_b=replace(cps.side_b, xi0=0.3))
    ps = pair_to(1e-3, cps, n_paths=2000, seed=53)
    (est, se), _, _ = kernel_oracles(ps, 1e-3)
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
            return math.exp(alpha_b * integral_b(kappa_b, sigma_b, u)
                            + riccati_b(kappa_b, sigma_b, u) * x_b)
        return math.exp(alpha_b * integral_beta(kappa_b, sigma_b, theta, u)
                        + riccati_beta(kappa_b, sigma_b, theta, u) * x_b)

    h = 1e-5
    fd = (transform(0.0) - transform(-h)) / h  # one-sided: theta must stay <= 0
    (est, se), _, _ = kernel_oracles(pair_to(u, cps, 0.0, 40_000, 59), u)
    assert abs(est - fd) < 3 * se


def test_mc_kernel_oracles_equal_separate_runs_at_gate_arguments():
    # pinned stream layout: the gate's two pair runs (the kernel run's 20,000
    # paths to u = 1, and the CVA run's 4096 to maturity 3 with its
    # conditional CVA summed over the 253 nodes of step 1/84), each on 1/168
    # Richardson-extrapolated against its coupled coarse path of 1/84, in
    # 4096-path blocks of antithetic pairs, give exactly these kernel and CVA
    # estimates and pair-clustered stderrs; a change of step, horizon, block
    # width, pairing, coupling, node rule or seed moves them
    from cdspool.harness import _pair_values
    mc = {name: (est, se) for name, ((_, est, se),) in _pair_values().items()}
    assert mc == {"h1": (0.23545613890578043, 0.00042621576138513715),
                  "h2": (0.2360578722097949, 0.0004152907478181361),
                  "joint_survival": (0.48625272698852423, 0.00047299569807204535),
                  "cva": (0.0018667063225643126, 4.098672892336841e-06)}


def test_mc_limit_transform_pinned_at_gate_arguments():
    # the gate's limit-SDE oracle: its twelve 4096-path blocks of exact
    # draws give exactly these values
    from cdspool.harness import _LIMIT_ORACLE_PATHS, VALIDATION_SEED, _validation_baseline
    cfg, _, _ = _validation_baseline()
    est = mc_limit_transform(1.5, cfg, n_paths=_LIMIT_ORACLE_PATHS,
                             seed=VALIDATION_SEED + 11)
    assert est == (0.9520838697493198, 0.00018007287915181478)


def test_exact_limit_oracle_agrees_with_an_euler_simulation():
    # the gate's config through 1000 antithetic Euler steps, the oracle's
    # former body; the two runs draw independent marks (different seeds)
    from cdspool.harness import _LIMIT_ORACLE_PATHS, VALIDATION_SEED
    cfg = FELLER_BROKEN
    euler, euler_se = euler_limit_transform(1.5, cfg, 20_480, VALIDATION_SEED + 11)
    assert (euler, euler_se) == (0.9521192420779284, 0.00018203144765617732)
    exact, exact_se = mc_limit_transform(1.5, cfg, _LIMIT_ORACLE_PATHS, VALIDATION_SEED + 12)
    assert abs(exact - euler) < 3 * math.hypot(exact_se, euler_se)


# the gate's limit diffusion: 2 alpha = 0.02 < sigma^2 = 0.09 breaks Feller
FELLER_BROKEN = _validation_baseline()[0]


@pytest.mark.parametrize("h", [1e-300, 1e-8, 0.05, 0.3 - 1e-12, 0.3, 1.0, 20.0, 500.0])
def test_expansion_sums_match_direct_summation(h):
    # 10^6 terms plus the integral of each sum's leading power beyond them;
    # the series below h = 0.3 and the closed forms above meet there
    n2 = (np.pi * np.arange(1, 1_000_001)) ** 2
    d, last = h * h + n2, np.pi ** 2 * 1e6
    direct = (np.sum(1 / d) + 1 / last, np.sum(1 / d ** 2) + np.pi ** 2 / (3 * last ** 3),
              np.sum(n2 / d ** 2) + 1 / last, np.sum(n2 / d ** 3) + np.pi ** 2 / (3 * last ** 3))
    np.testing.assert_allclose(_expansion_sums(h), direct, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("u", [0.05, 1.5, 10.0])
def test_integrated_cir_matches_its_mean_closed_forms(u):
    # E[X_u] = x0 e^{-kappa u} + alpha (1 - e^{-kappa u}) / kappa and
    # E[integral] = (x0 (1 - e^{-kappa u}) + alpha (u - (1 - e^{-kappa u}) / kappa)) / kappa
    cfg, n = FELLER_BROKEN, 1_000_000
    rng = np.random.Generator(np.random.Philox(83))
    alpha = np.full(n, cfg.alpha)
    x_u, integ = _integrated_cir(rng, cfg.x0, alpha, cfg.kappa, cfg.sigma, u)
    grow = -math.expm1(-cfg.kappa * u)
    means = (cfg.x0 * (1.0 - grow) + cfg.alpha * grow / cfg.kappa,
             (cfg.x0 * grow + cfg.alpha * (u - grow / cfg.kappa)) / cfg.kappa)
    for draws, mean in zip((x_u, integ), means):
        assert abs(draws.mean() - mean) <= 4 * _stderr(draws), (u, draws.mean(), mean)


@pytest.mark.parametrize("cfg", [NOJUMP_CFG, replace(FELLER_BROKEN, c=0.0, d=0.0)],
                         ids=["gate-nojump", "feller-broken"])
def test_mc_limit_transform_matches_the_no_jump_closed_form(cfg):
    # without jump loadings the marks drop out: exp(alpha IB(u) + B(u) x0)
    for u in (0.05, 1.5, 10.0):
        est, se = mc_limit_transform(u, cfg, n_paths=1 << 18, seed=89)
        closed = math.exp(cfg.alpha * integral_b(cfg.kappa, cfg.sigma, u)
                          + riccati_b(cfg.kappa, cfg.sigma, u) * cfg.x0)
        assert abs(est - closed) <= 4 * se, (u, est, closed, se)


def test_mc_limit_transform_is_finite_at_extreme_lags():
    # subnormal, tiny and the largest allowed lags: the expansion's sums
    # switch to their series, or the flow carries negligible noise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (5e-324, 1e-12, 1e-6, 1000 / FELLER_BROKEN.kappa):
            est, se = mc_limit_transform(u, FELLER_BROKEN, n_paths=4096, seed=97)
            assert 0.0 <= est <= 1.0 and 0.0 <= se < math.inf, (u, est, se)


@pytest.mark.parametrize("sigma, x0", [(1e-9, 0.02), (1e-12, 1e-30)])
def test_mc_limit_transform_follows_the_flow_where_noise_is_negligible(sigma, x0):
    # sigma = 1e-9 puts the transition's Poisson mean near 2e16: each path
    # follows its deterministic flow. From x0 = 1e-30 that mean is small but
    # the series counts' means pass 1e22, past numpy's Poisson sampler, and
    # are taken at their means. Only the marks carry noise.
    cfg = replace(FELLER_BROKEN, sigma=sigma, x0=x0)
    est, se = mc_limit_transform(1.5, cfg, n_paths=1 << 16, seed=103)
    assert se > 0.0 and abs(est - survival_fhat(1.5, cfg)) <= 4 * se


def test_limit_paths_depend_only_on_seed_and_index(monkeypatch):
    from cdspool import simulation
    seen = []
    stderr = simulation._stderr
    monkeypatch.setattr(simulation, "_stderr", lambda vals: seen.append(vals) or stderr(vals))
    for n in (700, 123, 49_152, 20_480):
        mc_limit_transform(1.5, FELLER_BROKEN, n_paths=n, seed=101)
    big, small, gate, old_gate = seen
    np.testing.assert_array_equal(big[:123], small)
    np.testing.assert_array_equal(gate[:20_480], old_gate)


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
    # the limit oracle checks the lag u; its diffusion is a LimitConfig,
    # which rejects a bad field when it is built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if field != "u":
            with pytest.raises(ConfigError):
                replace(LIMIT_CFG, **{field: value})
            return
        with pytest.raises(ConfigError, match="u must be"):
            mc_limit_transform(value, LIMIT_CFG, n_paths=10, seed=1)


def test_oracles_report_zero_stderr_for_one_path():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se = mc_limit_transform(1.0, LIMIT_CFG, n_paths=1, seed=1)
        kernels = kernel_oracles(pair_to(1.0, n_paths=1), 1.0)
    assert 0.0 < est < 1.0 and se == 0.0
    for est, se in kernels:
        assert math.isfinite(est) and se == 0.0


def test_pathset_bookkeeping():
    ps = stored_paths(Pool((), 1.0, 1.5, 1.5), make_cps(), horizon=1.0, n_paths=10, seed=61,
                      dt=1e-2)
    # stored integral equals a trapezoid over the stored full-resolution path
    manual = np.trapezoid(ps.intensities[0, :, 0], dx=ps.dt)
    assert ps.integrated[0, -1, 0] == pytest.approx(manual, rel=1e-12)


def _deterministic_pair(kappa=2.0, alpha=0.4, xi0=1.0):
    side = CounterpartySide(alpha=alpha, kappa=kappa, sigma=0.0, c=0.0, d=0.0,
                            lambda_hat=0.0, xi0=xi0)
    return make_cps(side_a=side, side_b=side)


def test_coarse_path_follows_the_explicit_euler_recursion():
    # sigma = 0, no jumps: each level is the explicit Euler recursion
    # x_n = x* + (x0 - x*)(1 - kappa h)^n of its own step, the coarse one on
    # every second node of the fine grid
    kappa, alpha, x0, n = 2.0, 0.4, 1.0, 64
    h, x_star = 1.0 / n, alpha / kappa
    ps = stored_paths(Pool(()), _deterministic_pair(kappa, alpha, x0), horizon=1.0,
                      dt=h, n_paths=4, seed=3)
    coarse = ps.coarse
    assert coarse.dt == 2 * h and coarse.coarse is None
    np.testing.assert_array_equal(coarse.times, ps.times[::2])
    for level, step in ((ps, h), (coarse, 2 * h)):
        recursion = x_star + (x0 - x_star) * (1 - kappa * step) ** np.arange(len(level.times))
        np.testing.assert_allclose(level.intensities, recursion[None, :, None].repeat(
            4, axis=0).repeat(2, axis=2), rtol=1e-14, atol=0)


def test_extrapolated_integral_error_falls_fourfold_per_halving():
    # against the exact integral of x(t) = x* + (x0 - x*) e^{-kappa t}, the
    # fine trapezoid of Euler errs to first order in h (ratio 2 per halving)
    # and 2 I_h - I_2h to second order (ratio 4)
    kappa, alpha, x0 = 2.0, 0.4, 1.0
    x_star = alpha / kappa
    exact = x_star + (x0 - x_star) * (1 - math.exp(-kappa)) / kappa
    plain, extrapolated = [], []
    for n in (16, 32, 64):
        ps = stored_paths(Pool(()), _deterministic_pair(kappa, alpha, x0), horizon=1.0,
                          dt=1.0 / n, n_paths=2, seed=3)
        est, se = _richardson(ps.integrated[:, -1, 0], ps.coarse.integrated[:, -1, 0])
        assert se == 0.0
        plain.append(ps.integrated[0, -1, 0] - exact)
        extrapolated.append(est - exact)
    for errs, ratio in ((plain, 2.0), (extrapolated, 4.0)):
        for coarser, finer in zip(errs, errs[1:]):
            assert coarser / finer == pytest.approx(ratio, rel=0.15)


def test_coarse_increment_is_the_sum_of_the_fine_ones():
    # jumps off: recover each fine step's Brownian increment from the fine
    # path; the one coarse step moves by its drift over 2h plus the sum of
    # the two, so antithetic partners mirror again and no draw is added
    alpha, kappa, sigma, x0, h = 0.3, 0.8, 0.4, 0.5, 1e-3
    side = CounterpartySide(alpha=alpha, kappa=kappa, sigma=sigma, c=0.0, d=0.0,
                            lambda_hat=0.0, xi0=x0)
    ps = stored_paths(Pool(()), make_cps(side_a=side, side_b=side), horizon=2 * h,
                      dt=h, n_paths=300, seed=83)
    x = ps.intensities  # no path leaves the positive half-line in two steps
    drift = lambda y: (alpha - kappa * y) * h
    dw = sum((x[:, i + 1] - x[:, i] - drift(x[:, i])) / (sigma * np.sqrt(x[:, i]))
             for i in (0, 1))
    np.testing.assert_allclose(ps.coarse.intensities[:, 1],
                               x0 + 2 * drift(x0) + sigma * math.sqrt(x0) * dw,
                               rtol=0, atol=1e-13)
    coarse_step = ps.coarse.intensities[:, 1] - x0 - 2 * drift(x0)
    np.testing.assert_allclose(coarse_step[0::2], -coarse_step[1::2], rtol=0, atol=1e-15)


def test_coarse_path_takes_both_fine_steps_jumps():
    # diffusion frozen, both jump layers on: the coarse path adds the jumps
    # of its two fine steps, so it meets the fine path at every coarse node,
    # and it is read against the same thresholds on its own grid
    side = CounterpartySide(alpha=0.0, kappa=1e-12, sigma=0.0, c=0.7, d=0.5,
                            lambda_hat=3.0, xi0=0.1)
    ps = stored_paths(Pool((), 5.0), make_cps(side_a=side, side_b=side), horizon=1.0,
                      dt=0.01, n_paths=200, seed=43)
    coarse = ps.coarse
    assert np.ptp(ps.intensities[:, -1, 0]) > 1.0  # the jumps moved the paths
    np.testing.assert_allclose(coarse.intensities, ps.intensities[:, ::2], rtol=1e-10)
    assert coarse.thresholds is ps.thresholds
    tau = default_times(coarse)
    tau = tau[np.isfinite(tau)]
    assert len(tau) > 0
    np.testing.assert_allclose(tau / 0.02, np.rint(tau / 0.02), rtol=0, atol=1e-9)


def test_pair_alone_needs_the_coarse_grid():
    kw = dict(horizon=1.0, n_paths=2, seed=1)
    with pytest.raises(ConfigError, match="even step count"):
        stored_paths(Pool(()), make_cps(), dt=1.0 / 3, **kw)
    # the coarse level visits the sample times on its grid alone, with the
    # values a store of every node holds there
    ps = stored_paths(Pool(()), make_cps(), dt=0.01, sample_times=[0.5, 0.51], **kw)
    every = stored_paths(Pool(()), make_cps(), dt=0.01, **kw)
    assert ps.times.tolist() == [0.5, 0.51] and ps.coarse.times.tolist() == [0.5]
    np.testing.assert_array_equal(ps.intensities, every.intensities[:, [50, 51]])
    np.testing.assert_array_equal(ps.coarse.intensities[:, 0], every.coarse.intensities[:, 25])
    np.testing.assert_array_equal(ps.coarse.integrated[:, 0], every.coarse.integrated[:, 25])
    # a system with names runs no coarse path, so it takes an odd one
    ps = stored_paths(Pool([make_name()]), make_cps(), dt=1.0 / 3, **kw)
    assert ps.coarse is None


def _quadrature_exposure(ps, pool, i, maturity, r, n_panels=2048):
    """The mean book value at t computed by quadrature alone: the survival
    exponent A0 as a cumulative Simpson integral of its Riccati integrand
    and the premium leg as composite Simpson, both on ``n_panels`` uniform
    panels, at sample index i."""

    K = ps.n_names
    x_t = ps.intensities[:, i, :K]
    span = maturity - ps.times[i]
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
    ps = stored_paths(pool, horizon=1.0, n_paths=64, seed=73, dt=1e-2,
                      sample_times=[0.0, 0.5, 1.0])
    for i, t in enumerate((0.0, 0.5, 1.0)):
        est = _book_values(ps.intensities[:, i], *_book_rows(pool, maturity, 0.03)).mean()
        ref = _quadrature_exposure(ps, pool, i, t + maturity, 0.03)
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


@pytest.mark.parametrize("workers", [1, 2])
def test_map_ordered_keeps_the_callers_floating_point_error_state(workers):
    # numpy keeps its error state in a context variable, which pool threads
    # do not inherit on their own
    def inverse(x):
        return 1.0 / np.float64(x)

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            map_ordered(inverse, [1.0, 0.0], workers)
    assert map_ordered(inverse, [1.0, 2.0], workers) == [1.0, 0.5]
