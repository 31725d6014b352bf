"""Jump-size laws: exponential sizes for portfolio names and the
Marshall-Olkin bivariate exponential (BVE) pair for the counterparties.

Moment generating functions are evaluated on the closed negative half-line
only; all Riccati exponents feeding them are non-positive by construction,
so no analytic continuation is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "BveParams",
    "mgf_exp",
    "mgf_bve",
    "mgf_bve_partials",
    "sample_bve",
]


@dataclass(frozen=True)
class BveParams:
    """Marshall-Olkin bivariate exponential: two idiosyncratic shocks with
    rates (gamma_a, gamma_b) and a common shock with rate gamma_ab.

    Marginals are Exp(gamma_i + gamma_ab); the component correlation is
    gamma_ab / gamma0. Either idiosyncratic rate may be zero as long as the
    marginal rates stay positive (gamma_a = gamma_b = 0 gives the comonotone
    pair driven by the common shock alone).
    """

    gamma_a: float
    gamma_b: float
    gamma_ab: float = 0.0

    def __post_init__(self) -> None:
        rates = (self.gamma_a, self.gamma_b, self.gamma_ab)
        if not np.all(np.isfinite(rates)) or min(rates) < 0.0:
            raise ConfigError(f"BVE rates must be finite and non-negative, got {rates}.")
        if not (self.gamma_a + self.gamma_ab > 0.0 and self.gamma_b + self.gamma_ab > 0.0):
            raise ConfigError("Implied marginal rates gamma_i + gamma_ab must be positive.")

    @property
    def gamma0(self) -> float:
        return self.gamma_a + self.gamma_b + self.gamma_ab

    @property
    def marginal_rate_a(self) -> float:
        return self.gamma_a + self.gamma_ab

    @property
    def marginal_rate_b(self) -> float:
        return self.gamma_b + self.gamma_ab

    @property
    def correlation(self) -> float:
        return self.gamma_ab / self.gamma0


def _check_theta(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not ((theta <= 0.0) & (theta > -np.inf)).all():
        raise ValueError("theta must be <= 0 and finite (MGFs are used on the negative "
                         "half-line).")
    return theta


def mgf_exp(theta, gamma: float) -> float | np.ndarray:
    """MGF of an Exp(gamma) size at theta <= 0: gamma / (gamma - theta)."""

    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    theta = _check_theta(theta)
    out = gamma / (gamma - theta)
    return float(out) if out.ndim == 0 else out


def mgf_bve(theta_a, theta_b, params: BveParams) -> float | np.ndarray:
    """Joint MGF of the Marshall-Olkin pair at (theta_a, theta_b) <= 0.

    [(g0 - tA - tB)(gA + gAB)(gB + gAB) + tA tB gAB]
    / [(g0 - tA - tB)(gA + gAB - tA)(gB + gAB - tB)], value in (0, 1].
    """

    ta = _check_theta(theta_a)
    tb = _check_theta(theta_b)
    g0 = params.gamma0
    ma = params.marginal_rate_a
    mb = params.marginal_rate_b
    num = (g0 - ta - tb) * ma * mb + ta * tb * params.gamma_ab
    den = (g0 - ta - tb) * (ma - ta) * (mb - tb)
    out = num / den
    return float(out) if out.ndim == 0 else out


def mgf_bve_partials(theta_a, theta_b, params: BveParams):
    """Both first partials of :func:`mgf_bve`; strictly positive on the domain."""

    ta = _check_theta(theta_a)
    tb = _check_theta(theta_b)
    g0 = params.gamma0
    gab = params.gamma_ab
    ma = params.marginal_rate_a
    mb = params.marginal_rate_b
    gstar = ma * mb
    s = g0 - ta - tb
    d_a = ((g0 - tb) * tb * gab * (ma - ta) + s * s * gstar + s * ta * tb * gab) / (
        s * s * (ma - ta) ** 2 * (mb - tb)
    )
    d_b = ((g0 - ta) * ta * gab * (mb - tb) + s * s * gstar + s * ta * tb * gab) / (
        s * s * (mb - tb) ** 2 * (ma - ta)
    )
    if d_a.ndim == 0:
        return float(d_a), float(d_b)
    return d_a, d_b


def sample_bve(params: BveParams, rng: np.random.Generator, size):
    """Draw ``size`` Marshall-Olkin pairs: (min(E_a, E_c), min(E_b, E_c)).

    E_a ~ Exp(gamma_a), E_b ~ Exp(gamma_b), E_c ~ Exp(gamma_ab); a zero rate
    means the corresponding shock never fires. Draw order is fixed
    (a, then b, then common) so streams are reproducible.
    """

    def _exp(rate: float):
        if rate > 0.0:
            return rng.standard_exponential(size) / rate
        return np.full(size, np.inf)

    e_a = _exp(params.gamma_a)
    e_b = _exp(params.gamma_b)
    e_c = _exp(params.gamma_ab)
    # in place: a large draw peaks at three arrays, not five
    return np.minimum(e_a, e_c, out=e_a), np.minimum(e_b, e_c, out=e_b)
