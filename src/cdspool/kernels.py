"""Affine counterparty kernels and the semi-closed bilateral CVA.

The default-density kernels H1 (counterparty B defaults first) and H2
(side A) share one exponential family: the exponent coefficients solve the
joint-killing Riccati system and are identical for both sides; only the
linear prefactor family differs. Coefficients are precomputed on a uniform
grid, cross-checked at half resolution, and interpolated with cubic
splines.

The bilateral adjustment integrates the discounted positive/negative part
of the limit exposure against pool survival and the matching kernel. The
exposure curve is scanned in one vectorised call and split at its sign
changes, so the integrand stays smooth on each piece, and every piece is
integrated by the Gauss-Legendre pricing rule of :mod:`cdspool.quadrature`.
A side's kernel is built only when the exposure has that side's sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import AccuracyError
from .exposure import LimitConfig, exposure_limit, survival_fhat
from .jumps import mgf_bve, mgf_bve_partials
from .quadrature import gauss_legendre_rule
from .riccati import exp_phi, riccati_b
from .simulation import CounterpartyParams

__all__ = [
    "AffineKernelCoeffs",
    "BcvaResult",
    "SweepResult",
    "build_kernel_coeffs",
    "h1",
    "h2",
    "joint_survival_equal",
    "bcva",
    "sensitivity_sweep",
    "kernel_ode_residuals",
]

SWEEP_PARAMETERS = ("sigma_star", "sigma_b", "lambda_c", "c_star")


@dataclass
class AffineKernelCoeffs:
    """Gridded coefficient functions of one kernel side.

    The kernel value at lag u is (pre1 + pre_a x_a + pre_b x_b) *
    exp(hat1 + hat_a x_a + hat_b x_b). hat_a/hat_b are non-positive;
    the side's own prefactor starts at 1, the other is identically 0.
    """

    side: str
    u_grid: np.ndarray
    hat1: np.ndarray
    hat_a: np.ndarray
    hat_b: np.ndarray
    pre1: np.ndarray
    pre_a: np.ndarray
    pre_b: np.ndarray
    _splines: dict = field(default_factory=dict, repr=False)

    @property
    def u_max(self) -> float:
        return float(self.u_grid[-1])

    def _spline(self, name: str) -> CubicSpline:
        if name not in self._splines:
            self._splines[name] = CubicSpline(self.u_grid, getattr(self, name))
        return self._splines[name]

    def evaluate(self, u, x_a: float, x_b: float):
        u = np.asarray(u, dtype=float)
        if np.any(u < -1e-12) or np.any(u > self.u_max * (1.0 + 1e-12)):
            raise ValueError(f"u outside the built range [0, {self.u_max}].")
        u = np.clip(u, 0.0, self.u_max)
        expo = (self._spline("hat1")(u) + self._spline("hat_a")(u) * x_a
                + self._spline("hat_b")(u) * x_b)
        pre = (self._spline("pre1")(u) + self._spline("pre_a")(u) * x_a
               + self._spline("pre_b")(u) * x_b)
        out = pre * np.exp(expo)
        return float(out) if out.ndim == 0 else out

    def survival(self, u, x_a: float, x_b: float):
        u = np.asarray(u, dtype=float)
        if np.any(u < -1e-12) or np.any(u > self.u_max * (1.0 + 1e-12)):
            raise ValueError(f"u outside the built range [0, {self.u_max}].")
        u = np.clip(u, 0.0, self.u_max)
        out = np.exp(self._spline("hat1")(u) + self._spline("hat_a")(u) * x_a
                     + self._spline("hat_b")(u) * x_b)
        return float(out) if out.ndim == 0 else out


def build_kernel_coeffs(cps: CounterpartyParams, lambda_c: float, side: str,
                        u_max: float, n_grid: int = 4096,
                        richardson_tol: float = 1e-7) -> AffineKernelCoeffs:
    """Build the coefficient grids of the H1 (side="B") or H2 (side="A") kernel.

    The exponent system is closed-form in the Riccati solutions; the two
    constant terms need cumulative quadrature of smooth MGF combinations
    and are Richardson-checked against a half-resolution rebuild.
    """

    if side not in ("A", "B"):
        raise ValueError("side must be 'A' (H2) or 'B' (H1).")
    if not u_max > 0.0:
        raise ValueError("u_max must be positive.")
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64.")
    if n_grid % 2:
        n_grid += 1

    fine = _kernel_grids(cps, lambda_c, side, u_max, n_grid)
    coarse = _kernel_grids(cps, lambda_c, side, u_max, n_grid // 2)
    err = max(
        float(np.max(np.abs(fine["hat1"][::2] - coarse["hat1"]))),
        float(np.max(np.abs(fine["pre1"][::2] - coarse["pre1"]))),
    )
    if err > richardson_tol:
        raise AccuracyError(
            f"Kernel coefficient quadrature off by {err:.3e} between grid and "
            f"half grid (tolerance {richardson_tol:g}); increase n_grid.")
    return AffineKernelCoeffs(side=side, **fine)


def _kernel_grids(cps: CounterpartyParams, lambda_c: float, side: str,
                  u_max: float, n_grid: int) -> dict:
    sa, sb = cps.side_a, cps.side_b
    lam = sa.lambda_hat + sb.lambda_hat + lambda_c
    u = np.linspace(0.0, u_max, n_grid + 1)
    du = u_max / n_grid

    hat_a = riccati_b(sa.kappa, sa.sigma, u)
    hat_b = riccati_b(sb.kappa, sb.sigma, u)
    phi = mgf_bve(sa.c * hat_a, sb.c * hat_b, cps.common_jump)
    phit_a = mgf_bve(sa.d * hat_a, np.zeros_like(u), cps.idio_jump)
    phit_b = mgf_bve(np.zeros_like(u), sb.d * hat_b, cps.idio_jump)
    rate = (sa.alpha * hat_a + sb.alpha * hat_b + lambda_c * phi
            + sa.lambda_hat * phit_a + sb.lambda_hat * phit_b)
    hat1 = cumulative_simpson(rate, dx=du, initial=0.0) - lam * u

    dphi_a, dphi_b = mgf_bve_partials(sa.c * hat_a, sb.c * hat_b, cps.common_jump)
    if side == "B":
        own = exp_phi(sb.kappa, sb.sigma, u)  # exp(-kappa_B u + sigma_B^2 int hat_b)
        dphit = mgf_bve_partials(np.zeros_like(u), sb.d * hat_b, cps.idio_jump)[1]
        rate_pre = own * (sb.alpha + lambda_c * sb.c * dphi_b
                          + sb.lambda_hat * sb.d * dphit)
        pre1 = cumulative_simpson(rate_pre, dx=du, initial=0.0)
        pre_a = np.zeros_like(u)
        pre_b = own
    else:
        own = exp_phi(sa.kappa, sa.sigma, u)
        dphit = mgf_bve_partials(sa.d * hat_a, np.zeros_like(u), cps.idio_jump)[0]
        rate_pre = own * (sa.alpha + lambda_c * sa.c * dphi_a
                          + sa.lambda_hat * sa.d * dphit)
        pre1 = cumulative_simpson(rate_pre, dx=du, initial=0.0)
        pre_a = own
        pre_b = np.zeros_like(u)
    return dict(u_grid=u, hat1=hat1, hat_a=hat_a, hat_b=hat_b,
                pre1=pre1, pre_a=pre_a, pre_b=pre_b)


def h1(u, x_a: float, x_b: float, coeffs: AffineKernelCoeffs):
    """Density kernel of side B defaulting at lag u, both sides surviving to u.

    At u = 0 this is exactly x_b. Non-negative on the whole domain.
    """

    if coeffs.side != "B":
        raise ValueError("h1 requires coefficients built with side='B'.")
    return coeffs.evaluate(u, x_a, x_b)


def h2(u, x_a: float, x_b: float, coeffs: AffineKernelCoeffs):
    """Mirror kernel for side A defaulting at lag u; equals x_a at u = 0."""

    if coeffs.side != "A":
        raise ValueError("h2 requires coefficients built with side='A'.")
    return coeffs.evaluate(u, x_a, x_b)


def joint_survival_equal(u, x_a: float, x_b: float, coeffs: AffineKernelCoeffs):
    """Joint survival factor of both counterparties over a lag u:
    exp(hat1 + hat_a x_a + hat_b x_b), in (0, 1]."""

    return coeffs.survival(u, x_a, x_b)


def kernel_ode_residuals(coeffs: AffineKernelCoeffs, cps: CounterpartyParams,
                         lambda_c: float) -> dict[str, float]:
    """Max finite-difference residuals of the gridded coefficients in their
    defining ODE system (interior nodes, central differences)."""

    sa, sb = cps.side_a, cps.side_b
    lam = sa.lambda_hat + sb.lambda_hat + lambda_c
    u = coeffs.u_grid
    du = u[1] - u[0]
    mid = slice(1, -1)

    def ddu(y):
        return (y[2:] - y[:-2]) / (2.0 * du)

    hat_a, hat_b = coeffs.hat_a, coeffs.hat_b
    res = {}
    res["hat_a"] = float(np.max(np.abs(
        ddu(hat_a) - (-sa.kappa * hat_a[mid] + 0.5 * sa.sigma**2 * hat_a[mid]**2 - 1.0))))
    res["hat_b"] = float(np.max(np.abs(
        ddu(hat_b) - (-sb.kappa * hat_b[mid] + 0.5 * sb.sigma**2 * hat_b[mid]**2 - 1.0))))
    phi = mgf_bve(sa.c * hat_a[mid], sb.c * hat_b[mid], cps.common_jump)
    phit_a = mgf_bve(sa.d * hat_a[mid], np.zeros(len(u) - 2), cps.idio_jump)
    phit_b = mgf_bve(np.zeros(len(u) - 2), sb.d * hat_b[mid], cps.idio_jump)
    rate = (sa.alpha * hat_a[mid] + sb.alpha * hat_b[mid] + lambda_c * phi
            + sa.lambda_hat * phit_a + sb.lambda_hat * phit_b) - lam
    res["hat1"] = float(np.max(np.abs(ddu(coeffs.hat1) - rate)))

    own_side = sb if coeffs.side == "B" else sa
    own = coeffs.pre_b if coeffs.side == "B" else coeffs.pre_a
    own_hat = hat_b if coeffs.side == "B" else hat_a
    res["pre_own"] = float(np.max(np.abs(
        ddu(own) - (-own_side.kappa * own[mid]
                    + own_side.sigma**2 * own[mid] * own_hat[mid]))))
    dphi_a, dphi_b = mgf_bve_partials(sa.c * hat_a[mid], sb.c * hat_b[mid],
                                      cps.common_jump)
    if coeffs.side == "B":
        dphit = mgf_bve_partials(np.zeros(len(u) - 2), sb.d * hat_b[mid],
                                 cps.idio_jump)[1]
        rate_pre = own[mid] * (sb.alpha + lambda_c * sb.c * dphi_b
                               + sb.lambda_hat * sb.d * dphit)
    else:
        dphit = mgf_bve_partials(sa.d * hat_a[mid], np.zeros(len(u) - 2),
                                 cps.idio_jump)[0]
        rate_pre = own[mid] * (sa.alpha + lambda_c * sa.c * dphi_a
                               + sa.lambda_hat * sa.d * dphit)
    res["pre1"] = float(np.max(np.abs(ddu(coeffs.pre1) - rate_pre)))
    return res


@dataclass(frozen=True)
class BcvaResult:
    """Per-name bilateral adjustment: bcva = dva - cva, both parts >= 0.

    cva/dva already include the loss fractions; total book numbers are the
    per-name values times k.
    """

    bcva: float
    cva: float
    dva: float
    k: int
    t: float
    maturity: float

    @property
    def total_bcva(self) -> float:
        return self.k * self.bcva


def _sign_segments(f, a: float, b: float, n_scan: int = 256):
    """Split [a, b] at the sign changes of a smooth function, scanned at
    n_scan + 1 points in one vector call and bracketed by brentq."""

    s = np.linspace(a, b, n_scan + 1)
    sign = np.sign(f(s))
    roots = [brentq(f, s[i], s[i + 1], xtol=1e-12)
             for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0)]
    return sorted(set([a, *roots, b]))


def bcva(t: float, maturity: float, cfg: LimitConfig, cps: CounterpartyParams,
         x_a: float | None = None, x_b: float | None = None, k: int = 1,
         n_grid: int = 4096) -> BcvaResult:
    """Semi-closed bilateral CVA of the large-pool CDS book at time t.

    The CVA term discounts the positive part of the limit exposure against
    pool survival and the side-B default kernel; the DVA term mirrors it
    with the negative part and side A. Sign changes of the exposure are
    located by bisection, and each sign segment is integrated by
    :func:`~cdspool.quadrature.gauss_legendre_rule`. A kernel side is built
    only when the exposure takes its sign somewhere on [t, T].
    Valuation conditions on everything alive at t, with counterparty states
    (x_a, x_b) defaulting to their initial intensities.
    """

    if t > maturity:
        raise ValueError("Require t <= maturity.")
    if x_a is None:
        x_a = cps.side_a.xi0
    if x_b is None:
        x_b = cps.side_b.xi0
    span = maturity - t
    if span == 0.0:
        return BcvaResult(bcva=0.0, cva=0.0, dva=0.0, k=k, t=t, maturity=maturity)

    def eps(s):
        return exposure_limit(s, maturity, cfg)

    cuts = np.array(_sign_segments(eps, t, maturity))
    mid_sign = np.sign(eps(0.5 * (cuts[:-1] + cuts[1:])))

    def part(side: str, sign: float) -> float:
        own = mid_sign == sign
        rules = [gauss_legendre_rule(lo, hi)
                 for lo, hi in zip(cuts[:-1][own], cuts[1:][own])]
        if not rules:
            return 0.0
        s = np.concatenate([x for x, _ in rules])
        w = np.concatenate([w for _, w in rules])
        coeffs = build_kernel_coeffs(cps, cfg.lambda_c, side, span, n_grid)
        f = (np.exp(-cfg.r * (s - t)) * np.maximum(sign * eps(s), 0.0)
             * survival_fhat(t, s, cfg) * coeffs.evaluate(s - t, x_a, x_b))
        return float(np.sum(w * f))

    cva = cps.loss_b * part("B", 1.0)
    dva = cps.loss_a * part("A", -1.0)
    return BcvaResult(bcva=dva - cva, cva=cva, dva=dva, k=k, t=t, maturity=maturity)


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


def _apply_sweep(parameter: str, value: float, cfg: LimitConfig,
                 cps: CounterpartyParams):
    if parameter == "sigma_star":
        return replace(cfg, sigma=value), cps
    if parameter == "c_star":
        return replace(cfg, c=value), cps
    if parameter == "lambda_c":
        return replace(cfg, lambda_c=value), cps
    if parameter == "sigma_b":
        return cfg, replace(cps, side_b=replace(cps.side_b, sigma=value))
    raise ValueError(f"Unknown sweep parameter {parameter!r}; "
                     f"expected one of {SWEEP_PARAMETERS}.")


def sensitivity_sweep(parameter: str, values: Sequence[float], cfg: LimitConfig,
                      cps: CounterpartyParams, t: float = 0.0, maturity: float = 3.0,
                      k: int = 1, workers: int = 1, n_grid: int = 4096) -> SweepResult:
    """Recompute the bilateral adjustment across a parameter grid.

    Supported parameters: sigma_star, sigma_b, lambda_c, c_star. Sweep
    points are independent; with workers > 1 they run on a thread pool and
    are assembled in grid order.
    """

    values = np.asarray(list(values), dtype=float)

    def point(v: float) -> BcvaResult:
        cfg_v, cps_v = _apply_sweep(parameter, v, cfg, cps)
        return bcva(t, maturity, cfg_v, cps_v, k=k, n_grid=n_grid)

    if workers > 1 and len(values) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(point, values))
    else:
        results = [point(v) for v in values]
    return SweepResult(parameter=parameter, values=values,
                       cva=np.array([r.cva for r in results]),
                       dva=np.array([r.dva for r in results]))
