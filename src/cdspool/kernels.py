"""Affine counterparty kernels and the semi-closed bilateral CVA.

The default-density kernels H1 (counterparty B defaults first) and H2
(side A) share one exponential family: the exponent coefficients solve the
joint-killing Riccati system and are identical for both sides; only the
linear prefactor family differs. :func:`kernel_coefficients` evaluates a
side's coefficients at the lags it is asked for: the state loadings and the
own-side prefactor in closed form, and the two constant terms as integrals
of smooth MGF combinations over the panels of
:func:`~cdspool.quadrature.gauss_legendre_panels`.

The bilateral adjustment integrates the discounted positive/negative part
of the limit exposure against pool survival and the matching kernel. The
exposure curve is scanned in one vectorised call and split at its sign
changes, each located by rescanning its bracket twice, so the integrand
stays smooth on each piece, and every piece is integrated on the same
panels, shifted to its start. A side's kernel is built only when the
exposure has that side's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import AccuracyError, ConfigError
from .exposure import LimitConfig, exposure_limit, survival_fhat
from .jumps import mgf_bve, mgf_bve_partials
from .quadrature import gauss_legendre_panels
from .riccati import exp_phi, riccati_b
from .simulation import CounterpartyParams, _check_discount, map_ordered

__all__ = [
    "BcvaResult",
    "SweepResult",
    "kernel_coefficients",
    "kernel",
    "joint_survival",
    "bcva",
    "sensitivity_sweep",
    "kernel_ode_residuals",
]


def _rates(cps: CounterpartyParams, lambda_c: float, side: str, s) -> np.ndarray:
    """Derivatives of the two constant terms, hat1' and pre1', at lags s,
    stacked on a new leading axis."""

    sa, sb = cps.side_a, cps.side_b
    hat_a = riccati_b(sa.kappa, sa.sigma, s)
    hat_b = riccati_b(sb.kappa, sb.sigma, s)
    zero = np.zeros_like(hat_a)
    rate = (sa.alpha * hat_a + sb.alpha * hat_b
            + lambda_c * (mgf_bve(sa.c * hat_a, sb.c * hat_b, cps.common_jump) - 1.0)
            + sa.lambda_hat * (mgf_bve(sa.d * hat_a, zero, cps.idio_jump) - 1.0)
            + sb.lambda_hat * (mgf_bve(zero, sb.d * hat_b, cps.idio_jump) - 1.0))
    dphi = mgf_bve_partials(sa.c * hat_a, sb.c * hat_b, cps.common_jump)
    own, i, idio = ((sb, 1, (zero, sb.d * hat_b)) if side == "B"
                    else (sa, 0, (sa.d * hat_a, zero)))
    dphit = mgf_bve_partials(*idio, cps.idio_jump)[i]
    rate_pre = exp_phi(own.kappa, own.sigma, s) * (
        own.alpha + lambda_c * own.c * dphi[i] + own.lambda_hat * own.d * dphit)
    return np.stack([rate, rate_pre])


def kernel_coefficients(u, cps: CounterpartyParams, lambda_c: float,
                        side: str) -> dict[str, np.ndarray]:
    """The six coefficients of the H1 (side="B") or H2 (side="A") kernel at
    lags u >= 0, by name: the kernel is (pre1 + pre_a x_a + pre_b x_b) *
    exp(hat1 + hat_a x_a + hat_b x_b). The exponent terms (hat_a, hat_b <= 0)
    and hat1 are the same for both sides; the own prefactor starts at 1, the
    other is 0. Both sides need sigma > 0 (:class:`ConfigError` otherwise).
    """

    if side not in ("A", "B"):
        raise ValueError("side must be 'A' (H2) or 'B' (H1).")
    if not 0.0 <= lambda_c < math.inf:
        raise ValueError(f"lambda_c must be finite and non-negative, got {lambda_c}")
    sa, sb = cps.side_a, cps.side_b
    if not min(sa.sigma, sb.sigma) > 0.0:
        raise ConfigError("the counterparty kernels need sigma > 0 on both sides, got "
                          f"sigma_a = {sa.sigma}, sigma_b = {sb.sigma}.")
    u = np.asarray(u, dtype=float)
    hat_a = np.asarray(riccati_b(sa.kappa, sa.sigma, u))
    hat_b = np.asarray(riccati_b(sb.kappa, sb.sigma, u))
    integral = 0.0
    for s, w in gauss_legendre_panels(u):
        # holding a panel's rates until the next are built keeps the
        # allocator from trimming and refaulting its heap every panel
        rates = _rates(cps, lambda_c, side, s)
        integral = integral + np.sum(w * rates, axis=-1)
    hat1, pre1 = integral
    own_side = sb if side == "B" else sa
    own, zero = np.asarray(exp_phi(own_side.kappa, own_side.sigma, u)), np.zeros_like(u)
    pre_a, pre_b = (zero, own) if side == "B" else (own, zero)
    return dict(hat1=hat1, hat_a=hat_a, hat_b=hat_b, pre1=pre1, pre_a=pre_a, pre_b=pre_b)


def _check_states(x_a, x_b) -> None:
    for name, x in (("x_a", x_a), ("x_b", x_b)):
        x = np.asarray(x, dtype=float)
        if not ((x >= 0.0) & (x < np.inf)).all():
            raise ValueError(f"{name} must be finite and non-negative, got {x}")


def kernel(u, x_a: float, x_b: float, cps: CounterpartyParams, lambda_c: float,
           side: str):
    """Default density at lag u from (x_a, x_b), both sides surviving to u:
    H1 (side B defaults; x_b at u = 0) for side="B", H2 (x_a at u = 0) for
    side="A". Non-negative; intensities x_a, x_b must be finite and >= 0."""

    _check_states(x_a, x_b)
    c = kernel_coefficients(u, cps, lambda_c, side)
    out = ((c["pre1"] + c["pre_a"] * x_a + c["pre_b"] * x_b)
           * np.exp(c["hat1"] + c["hat_a"] * x_a + c["hat_b"] * x_b))
    return float(out) if out.ndim == 0 else out


def joint_survival(u, x_a: float, x_b: float, cps: CounterpartyParams, lambda_c: float):
    """Joint survival factor of both counterparties over a lag u:
    exp(hat1 + hat_a x_a + hat_b x_b), in (0, 1], the same for either side."""

    _check_states(x_a, x_b)
    c = kernel_coefficients(u, cps, lambda_c, "B")
    out = np.exp(c["hat1"] + c["hat_a"] * x_a + c["hat_b"] * x_b)
    return float(out) if out.ndim == 0 else out


def kernel_ode_residuals(cps: CounterpartyParams, lambda_c: float, side: str,
                         u_max: float) -> dict[str, float]:
    """Max finite-difference residuals of one side's kernel coefficients in
    their defining ODE system, read on 4096 uniform panels of [0, u_max]
    (interior nodes, central differences)."""

    sa, sb = cps.side_a, cps.side_b
    u = np.linspace(0.0, u_max, 4097)
    c = kernel_coefficients(u, cps, lambda_c, side)
    own_side, own_hat = (sb, "hat_b") if side == "B" else (sa, "hat_a")
    c["pre_own"] = c["pre_b"] if side == "B" else c["pre_a"]
    m = {name: y[1:-1] for name, y in c.items()}
    rate, rate_pre = _rates(cps, lambda_c, side, u[1:-1])
    slopes = {
        "hat_a": -sa.kappa * m["hat_a"] + 0.5 * sa.sigma**2 * m["hat_a"]**2 - 1.0,
        "hat_b": -sb.kappa * m["hat_b"] + 0.5 * sb.sigma**2 * m["hat_b"]**2 - 1.0,
        "hat1": rate,
        "pre_own": (-own_side.kappa * m["pre_own"]
                    + own_side.sigma**2 * m["pre_own"] * m[own_hat]),
        "pre1": rate_pre,
    }
    du = u[1] - u[0]
    return {name: float(np.max(np.abs((c[name][2:] - c[name][:-2]) / (2.0 * du)
                                      - slope)))
            for name, slope in slopes.items()}


@dataclass(frozen=True)
class BcvaResult:
    """Per-name bilateral adjustment: bcva = dva - cva, both parts >= 0.

    cva/dva already include the loss fractions.
    """

    bcva: float
    cva: float
    dva: float


def _sign_segments(f, a: float, b: float):
    """Split [a, b] at the sign changes of a smooth function: returns the
    sorted cuts (an array) and the sign of f on each segment between them.

    f is scanned at 257 evenly spaced points in one vector call. Each
    bracket of a sign change is rescanned the same way twice, every bracket
    in one call, and its root is the secant of the last bracket, of width
    (b - a) / 256**3. A scan value of exactly 0 is a root; a NaN raises
    :class:`AccuracyError`. Each segment takes the first scan's sign at its
    first scan point, or the next one's where that is 0 (a root lies inside
    its bracket), so two neighbouring scan zeros make a segment of sign 0.
    """

    def scan(x: np.ndarray) -> np.ndarray:
        y = f(x)
        if np.isnan(y).any():
            raise AccuracyError(f"sign scan: f is NaN at x = {x[np.isnan(y)][0]!r}.")
        return y

    x = np.linspace(a, b, 257)
    y = scan(x)
    sign = np.sign(y)
    zeros = np.flatnonzero(y[1:-1] == 0.0) + 1
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    # the cuts and their places on the first scan, each root's halfway through its bracket
    place = np.concatenate([[0.0, 256.0], zeros, i + 0.5])
    cuts = np.concatenate([[a, b], x[zeros]])
    if i.size:
        lo, hi, f_lo, f_hi = x[i], x[i + 1], y[i], y[i + 1]
        rows = np.arange(i.size)
        t = np.linspace(0.0, 1.0, 257)
        for _ in range(2):
            # the ends keep their values; the 255 points between are new
            x = lo[:, None] + (hi - lo)[:, None] * t
            x[:, -1] = hi
            y = np.column_stack([f_lo, scan(x[:, 1:-1].ravel()).reshape(-1, 255), f_hi])
            # the first point off the left end's sign closes the new bracket
            k = np.argmax(np.sign(y) != np.sign(f_lo)[:, None], axis=1)
            lo, hi, f_lo, f_hi = x[rows, k - 1], x[rows, k], y[rows, k - 1], y[rows, k]
        roots = np.where(f_hi == 0.0, hi, lo - f_lo * (hi - lo) / (f_hi - f_lo))
        cuts = np.append(cuts, roots)
    order = np.argsort(place)
    place, cuts = place[order], cuts[order]
    c = np.ceil(place[:-1]).astype(int)  # each segment's first scan point
    signs = np.where(sign[c] != 0.0, sign[c], np.append(sign, 0.0)[c + 1])
    # a root that rounds onto a neighbouring cut leaves a segment of no length
    keep = cuts[1:] > cuts[:-1]
    return cuts[np.append(True, keep)], signs[keep]


def _adjustment_integrand(s, maturity: float, cfg: LimitConfig, sign: float):
    """e^{-r s} (sign E(s))^+ F(s), the adjustment integrand besides its
    kernel: E the limit exposure to ``maturity``, F the pool survival."""

    return (np.exp(-cfg.r * s) * np.maximum(sign * exposure_limit(s, maturity, cfg), 0.0)
            * survival_fhat(s, cfg))


def bcva(maturity: float, cfg: LimitConfig, cps: CounterpartyParams) -> BcvaResult:
    """Semi-closed bilateral CVA at time 0 of the large-pool CDS book
    maturing at ``maturity``.

    The CVA term discounts the positive part of the limit exposure against
    pool survival and the side-B default kernel; the DVA term mirrors it
    with the negative part and side A (:func:`_adjustment_integrand`). Sign
    changes of the exposure are located by :func:`_sign_segments`, to the
    secant of a bracket of width T / 256**3, and each segment of the sign
    it gives is integrated on :func:`~cdspool.quadrature.gauss_legendre_panels`
    shifted to its start. A kernel side is built only when the exposure
    takes its sign somewhere on [0, T]. The kernels start from the
    counterparties' initial intensities. A rate far enough below 0 that the
    discount factor over T overflows raises ConfigError.
    """

    if not 0.0 <= maturity < math.inf:
        raise ValueError(f"Require a finite maturity >= 0, got {maturity}.")
    _check_discount(cfg.r, maturity)
    if maturity == 0.0:
        return BcvaResult(bcva=0.0, cva=0.0, dva=0.0)

    cuts, signs = _sign_segments(lambda s: exposure_limit(s, maturity, cfg), 0.0, maturity)

    def part(side: str, sign: float) -> float:
        own = signs == sign
        panels = [(lo + x, w) for lo, hi in zip(cuts[:-1][own], cuts[1:][own])
                  for x, w in gauss_legendre_panels(hi - lo)]
        if not panels:
            return 0.0
        s, w = map(np.concatenate, zip(*panels))
        f = (_adjustment_integrand(s, maturity, cfg, sign)
             * kernel(s, cps.side_a.xi0, cps.side_b.xi0, cps, cfg.lambda_c, side))
        return float(np.sum(w * f))

    cva = cps.loss_b * part("B", 1.0)
    dva = cps.loss_a * part("A", -1.0)
    return BcvaResult(bcva=dva - cva, cva=cva, dva=dva)


@dataclass(frozen=True)
class SweepResult:
    """CVA/DVA curves over one swept parameter (per-name values)."""

    parameter: str
    values: np.ndarray
    cva: np.ndarray
    dva: np.ndarray

    @property
    def bcva(self) -> np.ndarray:
        return self.dva - self.cva


# each sweep parameter and the (limit config, counterparties) pair it sets
_SWEEPS = {
    "sigma_star": lambda v, cfg, cps: (replace(cfg, sigma=v), cps),
    "sigma_b": lambda v, cfg, cps: (cfg, replace(cps, side_b=replace(cps.side_b, sigma=v))),
    "lambda_c": lambda v, cfg, cps: (replace(cfg, lambda_c=v), cps),
    "c_star": lambda v, cfg, cps: (replace(cfg, c=v), cps),
}


def sensitivity_sweep(parameter: str, values: Sequence[float], cfg: LimitConfig,
                      cps: CounterpartyParams, maturity: float,
                      workers: int = 1) -> SweepResult:
    """Recompute the bilateral adjustment across a parameter grid.

    Supported parameters: sigma_star, sigma_b, lambda_c, c_star. Sweep
    points are independent; with workers > 1 they run on a thread pool and
    are assembled in grid order.
    """

    if parameter not in _SWEEPS:
        raise ConfigError(f"Unknown sweep parameter {parameter!r}; "
                          f"expected one of {tuple(_SWEEPS)}.")
    values = np.asarray(list(values), dtype=float)
    apply = _SWEEPS[parameter]

    def point(v: float) -> BcvaResult:
        return bcva(maturity, *apply(v, cfg, cps))

    results = map_ordered(point, values, workers)
    return SweepResult(parameter=parameter, values=values,
                       cva=np.array([r.cva for r in results]),
                       dva=np.array([r.dva for r in results]))
