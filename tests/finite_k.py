"""Closed-form expected exposure of a finite K-name book (test oracle), and
the exact engine's states for the tests that read them.

The per-path book value of ``exact_book_values`` ignores default indicators
and is linear in the names, so its expectation at time t needs only each
name's marginal law at t:

    E[eps_K(t)] = const + sum over j, k of rows[j, k] E exp(b0[j, k] x_{k,t}),

with (const, rows, b0) the estimator's own premium nodes plus maturity.
Each expectation is an affine transform with zero killing (Duffie, Pan and
Singleton 2000): E exp(b x_t) = exp(phi(t) + psi(t) x_0), where

    psi' = -kappa psi + sigma^2 psi^2 / 2,     psi(0) = b,
    phi' = alpha psi + sum over jump layers of rate (gamma / (gamma - ell psi) - 1),

both solved in closed form by :func:`transform_coefficients`, whose jump
layers are the pool's own (``Pool.layers``).

:func:`exact_states` stores the exact engine's block states, which the
pipeline only prices, as one (paths, times, names) array.
"""

import numpy as np

from cdspool.riccati import _log1p_ratio
from cdspool.simulation import _book_rows, _exact_blocks


def exact_states(pool, *, sample_times, n_paths, seed, workers=1):
    """states[m, i, k]: name k of ``pool``'s intensity at sample_times[i] on
    path m, from the block loop behind ``exact_book_values``; the sample
    times and path count are unchecked."""

    times = np.asarray(sample_times, dtype=float)
    states = np.empty((n_paths, len(times), len(pool.names)))

    def store(i, r0, r1, x):
        states[r0:r1, i] = x

    _exact_blocks(pool, times, n_paths, seed, workers, store)
    return states


def transform_coefficients(b, t, alpha, kappa, sigma, layers):
    """(phi(t), psi(t)) of E exp(b x_t) for b <= 0; every argument broadcasts.

    With em = expm1(-kappa t) and q = sigma^2 b / (2 kappa),
    psi = b (1 + em) / (1 + q em) and the integral of psi is
    -(b / kappa) log1p(q em) / q. A layer ``(rate, ell, gamma)`` adds
    -rate ell b / (kappa (gamma - ell b)) log1p(p em) / p with
    p = (gamma q - ell b) / (gamma - ell b).
    """

    b, t, alpha, kappa, sigma = (np.asarray(v, dtype=float)
                                 for v in (b, t, alpha, kappa, sigma))
    em = np.expm1(-kappa * t)
    q = sigma * sigma * b / (2.0 * kappa)
    psi = b * (1.0 + em) / (1.0 + q * em)
    phi = -alpha * b / kappa * _log1p_ratio(q, em)
    for rate, ell, gamma in layers:
        top = gamma - ell * b
        phi = phi - rate * ell * b / (kappa * top) * _log1p_ratio((gamma * q - ell * b) / top, em)
    return phi, psi


def finite_k_exposure(pool, t, maturity, r):
    """E[eps_K(t)] of ``exact_book_values`` on ``pool`` started at its names' xi0."""

    span = maturity - t
    if span == 0.0:
        return 0.0
    const, rows, b0 = _book_rows(pool, span, r)
    phi, psi = transform_coefficients(b0, t, pool.alpha, pool.kappa, pool.sigma, pool.layers)
    return float(const + np.sum(rows * np.exp(phi + psi * pool.xi0)))
