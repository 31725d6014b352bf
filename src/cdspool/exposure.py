"""Law-of-large-numbers layer: the limiting pool survival function, the
limit exposure per unit name, limit-measure evaluations, and the parameter
ladder used by convergence studies.

In the large-pool limit the surviving-name mass at horizon u is carried by
a square-root diffusion killed at its own level, with the two jump layers
collapsing into a per-name random drift shift c lambda_c Y + d lambda_hat
Ytilde. Averaging the affine transform over the exponential size laws
yields the closed form implemented by :func:`survival_fhat`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .quadrature import gauss_legendre_panels
from .riccati import integral_b, integral_beta, riccati_b, riccati_beta
from .simulation import NameParams, PathSet, _stderr

__all__ = [
    "LimitConfig",
    "MeasureAtom",
    "MeasureAtoms",
    "survival_fhat",
    "exposure_limit",
    "limit_measure_mass",
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
        if self.c < 0 or self.d < 0 or self.lambda_hat < 0 or self.lambda_c < 0:
            raise ConfigError("Jump loadings and rates must be non-negative.")
        if self.x0 <= 0:
            raise ConfigError("x0 must be positive.")
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative.")
        if not -1.0 <= self.l_z <= 1.0:
            raise ConfigError("l_z must lie in [-1, 1].")


@dataclass(frozen=True)
class MeasureAtom:
    """One weighted atom of a discrete sub-probability over (parameters,
    jump marks, initial intensity).

    ``y = (y1, y2)`` pins the jump marks; ``y = None`` averages over the
    exponential mark laws of the containing :class:`MeasureAtoms`.
    """

    weight: float
    alpha: float
    kappa: float
    sigma: float
    c: float
    d: float
    lambda_hat: float
    x0: float
    y: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.weight < 0.0:
            raise ConfigError("Atom weights must be non-negative.")


@dataclass(frozen=True)
class MeasureAtoms:
    """Finite atom set with the shared mark rates and common Poisson rate."""

    atoms: tuple[MeasureAtom, ...]
    gamma1: float
    gamma2: float
    lambda_c: float

    def __post_init__(self) -> None:
        total = sum(a.weight for a in self.atoms)
        if total > 1.0 + 1e-12:
            raise ConfigError("Atom weights must sum to at most 1.")


def _mark_factors(ib, c_load: float, d_load: float, gamma1: float, gamma2: float):
    """Averages exp((c_load y1 + d_load y2) * ib) over the exponential marks."""

    return (gamma1 / (gamma1 - c_load * ib)) * (gamma2 / (gamma2 - d_load * ib))


def survival_fhat(u, cfg: LimitConfig):
    """Limiting pool survival function over a lag u (time-homogeneous).

    exp(x0 B(u) + alpha IB(u)) * gamma1/(gamma1 - c lambda_c IB(u))
    * gamma2/(gamma2 - d lambda_hat IB(u)) with B the zero-initial Riccati
    solution and IB its integral. Values lie in (0, 1] and decrease in u;
    both denominators exceed their gamma since IB <= 0.
    """

    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise ValueError("Require u >= 0.")
    b = riccati_b(cfg.kappa, cfg.sigma, u)
    ib = integral_b(cfg.kappa, cfg.sigma, u)
    out = np.exp(cfg.x0 * b + cfg.alpha * ib) * _mark_factors(
        ib, cfg.c * cfg.lambda_c, cfg.d * cfg.lambda_hat, cfg.gamma1, cfg.gamma2)
    return float(out) if out.ndim == 0 else out


def exposure_limit(t, maturity: float, cfg: LimitConfig):
    """Limit exposure per unit name of a long investor at time(s) t.

    l_z [e^{-r v} Fhat(v) - 1] + (s_z + r l_z) * integral of e^{-r u} Fhat(u)
    over [0, v], with v = T - t and Fhat the pool survival function.
    Broadcasts over t. The integral sums the panels of
    :func:`~cdspool.quadrature.gauss_legendre_panels` on [0, v], so each
    value depends only on its own t and a vector call equals the scalar
    calls bit for bit. Vanishes exactly at t = T.
    """

    v = maturity - np.asarray(t, dtype=float)
    if np.any(v < 0.0):
        raise ValueError("Require t <= maturity.")
    integral = sum(np.sum(w * np.exp(-cfg.r * u) * survival_fhat(u, cfg), axis=-1)
                   for u, w in gauss_legendre_panels(v))
    terminal = cfg.l_z * (np.exp(-cfg.r * v) * survival_fhat(v, cfg) - 1.0)
    out = np.where(v > 0.0, terminal + (cfg.s_z + cfg.r * cfg.l_z) * integral, 0.0)
    return float(out) if out.ndim == 0 else out


def limit_measure_mass(t: float, atoms: MeasureAtoms) -> float:
    """Total surviving mass of the limit measure at time t.

    Each atom contributes weight * exp(x0 B + alpha IB) times either the
    exponential-mark average (y = None) or exp((c lambda_c y1 +
    d lambda_hat y2) IB) for pinned marks. Reduces to
    :func:`survival_fhat` for a single unit atom with averaged marks.
    """

    if t < 0.0:
        raise ValueError("t must be non-negative.")
    total = 0.0
    for a in atoms.atoms:
        b = riccati_b(a.kappa, a.sigma, t)
        ib = integral_b(a.kappa, a.sigma, t)
        core = math.exp(a.x0 * b + a.alpha * ib)
        if a.y is None:
            fac = _mark_factors(ib, a.c * atoms.lambda_c, a.d * a.lambda_hat,
                                atoms.gamma1, atoms.gamma2)
        else:
            y1, y2 = a.y
            fac = math.exp((a.c * atoms.lambda_c * y1 + a.d * a.lambda_hat * y2) * ib)
        total += a.weight * core * fac
    return total


def limit_exp_test(theta: float, t, cfg: LimitConfig):
    """Limit-measure integral of the test function exp(theta x) at time(s) t.

    Swaps the zero-initial Riccati solution for the one started at theta:
    exp(alpha Ibeta + beta(t) x0) times the exponential-mark averages at
    Ibeta. theta = 0 is the surviving mass, :func:`survival_fhat`.
    Broadcasts over t; a vector call equals the scalar calls bit for bit.
    """

    if theta > 0.0:
        raise ValueError("theta must be <= 0.")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be non-negative.")
    if theta == 0.0:
        return survival_fhat(t, cfg)
    bt = riccati_beta(cfg.kappa, cfg.sigma, theta, t)
    ib = integral_beta(cfg.kappa, cfg.sigma, theta, t)
    out = np.exp(cfg.alpha * ib + bt * cfg.x0) * _mark_factors(
        ib, cfg.c * cfg.lambda_c, cfg.d * cfg.lambda_hat, cfg.gamma1, cfg.gamma2)
    return float(out) if out.ndim == 0 else out


def empirical_measure_eval(pathset: PathSet, theta: float, t: float) -> tuple[float, float]:
    """Monte-Carlo average of the surviving-name empirical measure applied
    to the test function exp(theta x), theta <= 0, with standard error.

    The per-path statistic is the equal-weight average over names of
    exp(theta * intensity at t) times the survival indicator at t; theta = 0
    is the surviving mass, as in :func:`limit_exp_test`.
    """

    if theta > 0.0:
        raise ValueError("theta must be <= 0.")
    k = pathset.n_names
    if k == 0:
        raise ValueError("PathSet holds no reference names.")
    i_t = pathset.time_index(t)
    x = pathset.intensities[:, i_t, :k]
    alive = pathset.default_times[:, :k] > t
    f = 1.0 if theta == 0.0 else np.exp(theta * x)
    per_path = (f * alive).mean(axis=1)
    return float(per_path.mean()), _stderr(per_path)


def build_name_sequence(cfg: LimitConfig, K: int) -> list[NameParams]:
    """K-name book whose intensity parameters decrease to the limit.

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
    out = []
    for k in range(1, K + 1):
        up = 1.0 + 1.0 / k
        out.append(NameParams(
            alpha=cfg.alpha * up, kappa=cfg.kappa * up, sigma=cfg.sigma * up,
            c=cfg.c * up, d=cfg.d * up, lambda_hat=cfg.lambda_hat * up,
            xi0=cfg.x0 * up, spread=abs(cfg.s_z), loss=abs(cfg.l_z), z=z))
    return out
