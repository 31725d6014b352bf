"""Law-of-large-numbers layer: the limiting pool survival function, the
limit exposure per unit name, and the parameter ladder used by convergence
studies.

In the large-pool limit the surviving-name mass at horizon u is carried by
a square-root diffusion killed at its own level, with the two jump layers
collapsing into a per-name random drift shift c lambda_c Y + d lambda_hat
Ytilde. Averaging the affine transform over the exponential size laws
yields the closed form implemented by :func:`survival_fhat`. The finite
books that converge to this limit come from :func:`build_name_sequence`, as
a :class:`~cdspool.simulation.Pool` with the limit's jump law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .quadrature import gauss_legendre_panels
from .riccati import integral_b, integral_beta, riccati_b, riccati_beta
from .simulation import NameParams, Pool, _check_discount

__all__ = [
    "LimitConfig",
    "survival_fhat",
    "exposure_limit",
    "limit_exp_test",
    "empirical_measure_eval",
    "build_name_sequence",
]


@dataclass(frozen=True)
class LimitConfig:
    """Limiting name parameters plus the pool-level contract averages.

    (alpha, kappa, sigma, c, d, lambda_hat) is the limit of the per-name
    parameter ladder, x0 the limit initial intensity; gamma1/gamma2 are the
    jump-size rates, lambda_c the common Poisson rate. s_z and l_z are the
    signed per-name averages of spread and loss, r the risk-free rate.
    """

    alpha: float
    kappa: float
    sigma: float
    c: float
    d: float
    lambda_hat: float
    x0: float
    gamma1: float
    gamma2: float
    lambda_c: float
    s_z: float
    l_z: float
    r: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha, self.kappa, self.sigma, self.c,
                                       self.d, self.lambda_hat, self.x0, self.gamma1,
                                       self.gamma2, self.lambda_c, self.s_z, self.l_z,
                                       self.r))):
            raise ConfigError("LimitConfig fields must be finite.")
        if self.kappa <= 0 or self.sigma <= 0 or self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ConfigError("kappa, sigma, gamma1, gamma2 must be positive.")
        if not math.isfinite(self.kappa * self.kappa + 2.0 * self.sigma * self.sigma):
            raise ConfigError("kappa^2 + 2 sigma^2 must be a finite float.")
        if self.c < 0 or self.d < 0 or self.lambda_hat < 0 or self.lambda_c < 0:
            raise ConfigError("Jump loadings and rates must be non-negative.")
        if self.x0 <= 0:
            raise ConfigError("x0 must be positive.")
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative.")
        if not -1.0 <= self.l_z <= 1.0:
            raise ConfigError("l_z must lie in [-1, 1].")


def survival_fhat(u, cfg: LimitConfig):
    """Limiting pool survival function over a lag u (time-homogeneous).

    :func:`limit_exp_test` at theta = 0, where B is the zero-initial Riccati
    solution. Values lie in (0, 1] and decrease in u; both mark-factor
    denominators exceed their gamma since IB <= 0.
    """

    return limit_exp_test(0.0, u, cfg)


def exposure_limit(t, maturity: float, cfg: LimitConfig):
    """Limit exposure per unit name of a long investor at time(s) t.

    l_z [e^{-r v} Fhat(v) - 1] + (s_z + r l_z) * integral of e^{-r u} Fhat(u)
    over [0, v], with v = T - t and Fhat the pool survival function.
    Broadcasts over t. The integral sums the panels of
    :func:`~cdspool.quadrature.gauss_legendre_panels` on [0, v], so each
    value depends only on its own t and a vector call equals the scalar
    calls bit for bit. Vanishes exactly at t = T. Raises ValueError unless
    t <= T, both finite, and ConfigError if the discount factor over the
    longest span T - t overflows (a rate far below 0).
    """

    t = np.asarray(t, dtype=float)
    if not (math.isfinite(maturity) and ((t <= maturity) & (t > -np.inf)).all()):
        raise ValueError("Require t <= maturity, both finite.")
    v = maturity - t
    _check_discount(cfg.r, v.max(initial=0.0))
    integral = sum(np.sum(w * np.exp(-cfg.r * u) * survival_fhat(u, cfg), axis=-1)
                   for u, w in gauss_legendre_panels(v))
    terminal = cfg.l_z * (np.exp(-cfg.r * v) * survival_fhat(v, cfg) - 1.0)
    out = np.where(v > 0.0, terminal + (cfg.s_z + cfg.r * cfg.l_z) * integral, 0.0)
    return float(out) if out.ndim == 0 else out


def limit_exp_test(theta: float, t, cfg: LimitConfig):
    """Limit-measure integral of the test function exp(theta x) at time(s) t.

    exp(x0 B + alpha IB) times the exponential-mark averages
    gamma1/(gamma1 - c lambda_c IB) and gamma2/(gamma2 - d lambda_hat IB),
    with B the Riccati solution started at theta and IB its integral.
    theta = 0 is the surviving mass, :func:`survival_fhat`. Broadcasts over
    t; a vector call equals the scalar calls bit for bit.
    """

    if not theta <= 0.0:
        raise ValueError("theta must be <= 0.")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise ValueError("t must be non-negative.")
    if theta == 0.0:
        b = riccati_b(cfg.kappa, cfg.sigma, t)
        ib = integral_b(cfg.kappa, cfg.sigma, t)
    else:
        b = riccati_beta(cfg.kappa, cfg.sigma, theta, t)
        ib = integral_beta(cfg.kappa, cfg.sigma, theta, t)
    m1 = cfg.gamma1 / (cfg.gamma1 - cfg.c * cfg.lambda_c * ib)
    m2 = cfg.gamma2 / (cfg.gamma2 - cfg.d * cfg.lambda_hat * ib)
    out = np.exp(cfg.x0 * b + cfg.alpha * ib) * (m1 * m2)
    return float(out) if out.ndim == 0 else out


def empirical_measure_eval(x: np.ndarray, alive: np.ndarray, theta: float) -> np.ndarray:
    """Per-path values of the surviving-name empirical measure applied to
    the test function exp(theta x), theta <= 0, at one time t.

    x holds the names' intensities at t and alive their survival
    indicators there (paths by names): 1{integral of x_k on [0, t] <
    threshold_k}. A path's value is the equal-weight average over names of
    exp(theta x) times alive; theta = 0 is the surviving mass, as in
    :func:`limit_exp_test`. Euler paths come in antithetic pairs, so their
    mean's stderr is the pair-clustered one.
    """

    if not theta <= 0.0:
        raise ValueError("theta must be <= 0.")
    if np.shape(x)[-1] == 0:
        raise ValueError("No reference names.")
    f = 1.0 if theta == 0.0 else np.exp(theta * x)
    return (f * alive).mean(axis=1)


def build_name_sequence(cfg: LimitConfig, K: int) -> Pool:
    """K-name book whose intensity parameters decrease to the limit, as a
    :class:`~cdspool.simulation.Pool` with cfg's lambda_c, gamma1 and gamma2.

    Name k scales alpha, kappa, sigma, c, d, lambda_hat and x0 by (1 + 1/k).
    Every name carries spread |s_z| and loss |l_z|: long (z = +1) when
    s_z, l_z >= 0, short (z = -1) when both are <= 0, so the book's signed
    per-name averages of spread and loss equal s_z and l_z for every K.
    Opposite signs would need a mix of long and short names and raise
    :class:`ConfigError`.
    """

    if K < 1:
        raise ValueError("K must be >= 1.")
    if cfg.s_z >= 0.0 and cfg.l_z >= 0.0:
        z = 1
    elif cfg.s_z <= 0.0 and cfg.l_z <= 0.0:
        z = -1
    else:
        raise ConfigError(
            f"mixed-sign books are not supported (s_z = {cfg.s_z:g}, "
            f"l_z = {cfg.l_z:g}); s_z and l_z must share a sign.")
    names = []
    for k in range(1, K + 1):
        up = 1.0 + 1.0 / k
        names.append(NameParams(
            alpha=cfg.alpha * up, kappa=cfg.kappa * up, sigma=cfg.sigma * up,
            c=cfg.c * up, d=cfg.d * up, lambda_hat=cfg.lambda_hat * up,
            xi0=cfg.x0 * up, spread=abs(cfg.s_z), loss=abs(cfg.l_z), z=z))
    return Pool(names, cfg.lambda_c, cfg.gamma1, cfg.gamma2)
