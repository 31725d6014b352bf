"""Closed-form expected exposure of a finite K-name book (test oracle).

``mc_exposure`` ignores default indicators and is linear in the names, so
its expectation at time t needs only each name's marginal law at t:

    E[eps_K(t)] = const + sum over j, k of rows[j, k] E exp(b0[j, k] x_{k,t}),

with (const, rows, b0) the estimator's own premium nodes plus maturity.
Each expectation is an affine transform with zero killing (Duffie, Pan and
Singleton 2000): E exp(b x_t) = exp(phi(t) + psi(t) x_0), where

    psi' = -kappa psi + sigma^2 psi^2 / 2,     psi(0) = b,
    phi' = alpha psi + sum over jump layers of rate (gamma / (gamma - ell psi) - 1),

both solved in closed form by :func:`transform_coefficients`.
"""

import numpy as np

from cdspool.riccati import _log1p_ratio
from cdspool.simulation import _book_rows


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


def finite_k_exposure(names, lambda_c, gamma1, gamma2, t, maturity, r):
    """E[eps_K(t)] of ``mc_exposure`` on a book started at the names' xi0."""

    span = maturity - t
    if span == 0.0:
        return 0.0
    const, rows, b0 = _book_rows(names, lambda_c, gamma1, gamma2, span, r)
    get = lambda attr: np.array([getattr(n, attr) for n in names], dtype=float)
    phi, psi = transform_coefficients(
        b0, t, get("alpha"), get("kappa"), get("sigma"),
        [(lambda_c, get("c"), gamma1), (get("lambda_hat"), get("d"), gamma2)])
    return float(const + np.sum(rows * np.exp(phi + psi * get("xi0"))))
