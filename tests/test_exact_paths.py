"""The exact sample-time engine and the closed-form finite-K oracle."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from cdspool.errors import ConfigError
from cdspool.exposure import LimitConfig, build_name_sequence
from cdspool.simulation import NameParams, Pool, exact_book_values

from finite_k import exact_states, transform_coefficients
from oracles import rk4_solve


def make_name(**overrides):
    base = dict(alpha=0.01, kappa=0.5, sigma=0.2, c=0.2, d=0.2, lambda_hat=0.5,
                xi0=0.02, spread=0.02, loss=0.4)
    base.update(overrides)
    return NameParams(**base)


def ladder(alpha, sigma, x0, kappa):
    """First five names of a convergence ladder without jump loadings."""

    cfg = LimitConfig(alpha=alpha, kappa=kappa, sigma=sigma, c=0.0, d=0.0, lambda_hat=0.5,
                      x0=x0, gamma1=1.5, gamma2=1.5, lambda_c=2.5, s_z=0.02, l_z=0.4,
                      r=0.03)
    return build_name_sequence(cfg, 5).names


# ---------------------------------------------------------------------------
# the closed-form transform against RK4 on its own ODE
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b, alpha, kappa, sigma, layers", [
    (-0.7, 0.01, 0.5, 0.2, [(2.5, 0.2, 1.5), (0.5, 0.2, 1.5)]),
    (-3.0, 0.75, 1.5, 0.2, []),
    (-1.2, 0.0, 0.8, 1.1, [(1.0, 0.4, 2.0)]),
    (-0.4, 0.3, 0.5, 1e-9, [(2.5, 0.3, 1.5)]),        # sigma -> 0: q -> 0
    (-0.9, 0.2, 0.5, 0.2, [(2.5, 0.06, 1.5)]),        # p = 0 crossing
    (0.0, 0.5, 1.0, 0.3, [(2.5, 0.2, 1.5)]),          # b = 0: the unit transform
])
def test_transform_coefficients_match_rk4(b, alpha, kappa, sigma, layers):
    def rhs(y):
        psi = y[0]
        dphi = alpha * psi + sum(rate * (gamma / (gamma - ell * psi) - 1.0)
                                 for rate, ell, gamma in layers)
        return np.array([-kappa * psi + 0.5 * sigma * sigma * psi * psi, dphi])

    for t in (0.25, 1.0, 3.0):
        psi_rk, phi_rk = rk4_solve(rhs, [b, 0.0], t, 1e-3)
        phi, psi = transform_coefficients(b, t, alpha, kappa, sigma, layers)
        assert abs(psi - psi_rk) <= 1e-10 * max(1.0, abs(b))
        assert abs(phi - phi_rk) <= 1e-10


# ---------------------------------------------------------------------------
# one-interval transition moments and jump-layer means
# ---------------------------------------------------------------------------

def _z(sample: np.ndarray, mean: float, var: float) -> tuple[float, float]:
    """z-scores of the sample mean and variance against the given values."""

    n = len(sample)
    dev = sample - sample.mean()
    z_mean = abs(sample.mean() - mean) / (sample.std(ddof=1) / math.sqrt(n))
    s2 = dev.var(ddof=1)
    z_var = abs(s2 - var) / math.sqrt((np.mean(dev ** 4) - s2 * s2) / n)
    return z_mean, z_var


@pytest.mark.parametrize("label, names", [
    ("fig1-a ladder, df > 1", ladder(0.01, 0.01, 0.02, 0.5)),
    ("fig1-d ladder, df > 1", ladder(0.75, 0.2, 0.5, 1.5)),
    ("fig1-c ladder, df < 1", ladder(0.01, 0.2, 0.02, 0.5)),
    ("alpha = 0", [make_name(alpha=0.0, xi0=x, sigma=s) for x, s in
                   ((0.02, 0.2), (0.5, 0.3), (0.1, 1.0))]),
])
def test_one_interval_moments_match_cir(label, names):
    names = [replace(n, c=0.0, d=0.0, lambda_hat=0.0) for n in names]
    dt = 0.25
    xs = exact_states(Pool(names, 0.0, 1.5, 1.5), sample_times=[0.0, dt], n_paths=20_000,
                      seed=5)
    worst = 0.0
    for k, n in enumerate(names):
        e = math.exp(-n.kappa * dt)
        mean = n.xi0 * e + n.alpha / n.kappa * (1.0 - e)
        var = (n.xi0 * n.sigma ** 2 * e * (1.0 - e) / n.kappa
               + n.alpha * n.sigma ** 2 * (1.0 - e) ** 2 / (2.0 * n.kappa ** 2))
        worst = max(worst, *_z(xs[:, 1, k], mean, var))
    assert worst <= 4.0, (label, worst)


def test_zero_sigma_follows_the_deterministic_flow():
    names = [make_name(sigma=0.0, c=0.0, d=0.0, lambda_hat=0.0, xi0=x) for x in (0.0, 0.3)]
    times = np.linspace(0.0, 1.0, 5)
    xs = exact_states(Pool(names, 0.0, 1.5, 1.5), sample_times=times, n_paths=4, seed=2)
    for k, n in enumerate(names):
        e = np.exp(-n.kappa * times)
        flow = n.xi0 * e + n.alpha / n.kappa * (1.0 - e)
        np.testing.assert_allclose(xs[:, :, k], np.broadcast_to(flow, (4, 5)),
                                   rtol=1e-14, atol=1e-17)


def test_jump_layer_means_of_the_ladder_ends():
    # fig1-c ladder at K = 300, both jump layers: names 1 and K
    cfg = LimitConfig(alpha=0.01, kappa=0.5, sigma=0.2, c=0.2, d=0.2, lambda_hat=0.5,
                      x0=0.02, gamma1=1.5, gamma2=1.5, lambda_c=2.5, s_z=0.02,
                      l_z=0.4, r=0.03)
    full = build_name_sequence(cfg, 300)
    book = replace(full, names=[full.names[0], full.names[-1]])
    xs = exact_states(book, sample_times=[0.0, 0.5, 1.0], n_paths=20_000, seed=9)
    worst = 0.0
    for i, t in ((1, 0.5), (2, 1.0)):
        for k, n in enumerate(book.names):
            e = math.exp(-n.kappa * t)
            drift = n.alpha + cfg.lambda_c * n.c / cfg.gamma1 + n.lambda_hat * n.d / cfg.gamma2
            mean = n.xi0 * e + drift * (1.0 - e) / n.kappa
            x = xs[:, i, k]
            worst = max(worst, abs(x.mean() - mean) / (x.std(ddof=1) / math.sqrt(len(x))))
    assert worst <= 4.0


# ---------------------------------------------------------------------------
# reproducibility and input checks
# ---------------------------------------------------------------------------

def _jump_book():
    return Pool([make_name(xi0=0.01 * (k + 1), sigma=0.1 + 0.05 * k) for k in range(3)],
                lambda_c=2.5, gamma1=1.5, gamma2=1.5)


EXACT_KW = dict(sample_times=np.linspace(0.0, 0.5, 6), seed=31)


def test_exact_paths_worker_invariance():
    runs = [exact_states(_jump_book(), n_paths=600, workers=w, **EXACT_KW)
            for w in (1, 2, 4)]
    for other in runs[1:]:
        assert runs[0].tobytes() == other.tobytes()


def test_exact_paths_invariant_to_total_path_count():
    big = exact_states(_jump_book(), n_paths=700, **EXACT_KW)
    small = exact_states(_jump_book(), n_paths=123, **EXACT_KW)
    np.testing.assert_array_equal(big[:123], small)


def test_exact_paths_pinned():
    # pinned stream layout and transition arithmetic of the exact engine:
    # both jump layers; SHA-256 of the raw float64 bytes
    xs = exact_states(_jump_book(), n_paths=600, workers=2, **EXACT_KW)
    got = hashlib.sha256(np.ascontiguousarray(xs).tobytes()).hexdigest()
    assert got == "c95076f3c3c81cb64e9b000b6f6292a5d7b4a33dd86c066f0a9fe397ceb586ca"


def test_exact_paths_store_the_sample_times_and_no_defaults():
    xs = exact_states(_jump_book(), n_paths=5, **EXACT_KW)
    assert xs.shape == (5, 6, 3)
    np.testing.assert_array_equal(xs[:, 0], np.broadcast_to([0.01, 0.02, 0.03], (5, 3)))
    assert np.all(xs >= 0.0)


@pytest.mark.parametrize("override", [
    dict(sample_times=[0.1, 0.5]), dict(sample_times=[0.0, 0.5, 0.5]),
    dict(sample_times=[0.0]), dict(sample_times=[0.0, np.inf]),
    dict(gamma1=0.0), dict(lambda_c=-1.0), dict(gamma2=np.nan), dict(n_paths=0),
    dict(names=[]),
    # r = nan used to return all-NaN values, r = inf to raise numpy's
    # invalid-value warning and maturity = inf an OverflowError
    dict(r=np.nan), dict(r=np.inf), dict(r=-np.inf), dict(maturity=np.inf),
    dict(maturity=np.nan),
])
def test_exact_paths_reject_bad_input(override):
    # the jump law is checked when its Pool is built, the rest by the engine
    kw = dict(EXACT_KW, names=_jump_book().names, lambda_c=2.5, gamma1=1.5, gamma2=1.5,
              n_paths=4, maturity=1.0, r=0.03) | override
    law = {k: kw.pop(k) for k in ("names", "lambda_c", "gamma1", "gamma2")}
    with pytest.raises(ConfigError):
        exact_book_values(Pool(**law), **kw)
