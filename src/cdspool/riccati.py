"""Closed-form solutions of the scalar Riccati equations behind affine
survival transforms.

Everything here revolves around the autonomous equation

    y'(u) = -kappa * y(u) + (sigma^2 / 2) * y(u)^2 - a,    y(0) = b,

whose solutions are the exponent coefficients of transforms of the form
``E[exp(-a * integral x_s ds + b * x_u)]`` for a square-root diffusion x.
The zero-initial-condition solution :func:`riccati_b` and its integral
:func:`integral_b` carry the survival transforms, and
:func:`survival_exponents` adds exponential-size jump layers to them in
closed form, broadcasting over parameter vectors; :func:`riccati_beta`
handles nonzero initial conditions (exponential test functions), and
:func:`riccati_beta_general` rescales to an arbitrary killing weight.

All expressions are written in terms of ``expm1``/``log1p`` of the decaying
exponential ``exp(-varpi u)``, which is exact at u = 0 and cannot overflow
at long horizons.

:func:`rk4_solve` is a plain Runge-Kutta integrator used by the test suite
as an independent oracle, and :func:`rk4_solve_integral` carries the running
integral of the solution along; no pricing path calls either.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "varpi",
    "riccati_b",
    "integral_b",
    "survival_exponents",
    "exp_phi",
    "integral_exp_phi",
    "riccati_beta",
    "integral_beta",
    "riccati_beta_general",
    "riccati_rhs",
    "rk4_solve",
    "rk4_solve_integral",
]


# below this |p|, log1p(p x) / p equals its limit x to rounding, and p x
# would lose digits to subnormal underflow
_TINY = 1e-100


def _check_rates(kappa: float, sigma: float) -> None:
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")


def _check_u(u):
    u = np.asarray(u, dtype=float)
    if not np.all(u >= 0.0):
        raise ValueError("u must be non-negative.")
    return u


def _maybe_scalar(value: np.ndarray, scalar_in: bool):
    return float(value) if scalar_in else value


def varpi(kappa: float, sigma: float) -> float:
    """Discriminant sqrt(kappa^2 + 2 sigma^2) of the unit-killing equation."""

    _check_rates(kappa, sigma)
    return math.sqrt(kappa * kappa + 2.0 * sigma * sigma)


def riccati_b(kappa: float, sigma: float, u) -> float | np.ndarray:
    """Solution of y' = -kappa y + sigma^2 y^2 / 2 - 1 with y(0) = 0.

    Monotonically decreasing from 0 to the stationary root
    -2 / (kappa + varpi); always in (-2/(kappa+varpi), 0].
    """

    w = varpi(kappa, sigma)
    u = _check_u(u)
    scalar = u.ndim == 0
    em = np.expm1(-w * u)
    out = 2.0 * em / (2.0 * w * np.exp(-w * u) - (kappa + w) * em)
    # expm1(-0.0) is -0.0; normalize so B(0) == +0.0 exactly
    out = out + 0.0
    return _maybe_scalar(out, scalar)


def integral_b(kappa: float, sigma: float, u) -> float | np.ndarray:
    """Integral of :func:`riccati_b` from 0 to u, in closed form.

    Equals -2u/(varpi+kappa) - 4/(varpi^2-kappa^2) *
    log1p((varpi-kappa) expm1(-varpi u) / (2 varpi)); non-positive and
    decreasing in u with slope riccati_b(u). Both differences are evaluated
    in the sigma^2 form, so the relative error stays at rounding level as
    sigma / kappa -> 0.
    """

    w = varpi(kappa, sigma)
    u = _check_u(u)
    scalar = u.ndim == 0
    # varpi - kappa = 2 sigma^2 / (varpi + kappa) and varpi^2 - kappa^2 =
    # 2 sigma^2, written without the subtractions that cancel as sigma -> 0
    g = w + kappa
    q = sigma * sigma / (w * g)
    em = np.expm1(-w * u)
    out = -2.0 * u / g - (2.0 / (w * g)) * (np.log1p(q * em) / q if q > _TINY else em)
    out = out + 0.0
    return _maybe_scalar(out, scalar)


def _log1p_ratio(p, x):
    """log1p(p x) / p, continued by its p -> 0 limit x; broadcasts."""

    tiny = np.abs(p) <= _TINY
    return np.where(tiny, x, np.log1p(p * x) / np.where(tiny, 1.0, p))


def survival_exponents(kappa, sigma, alpha, jumps, u) -> tuple[np.ndarray, np.ndarray]:
    """Exponents (A, B) of the basic affine jump-diffusion survival transform.

    For dx = (alpha - kappa x) dt + sigma sqrt(x) dW plus, for each
    ``(rate, ell, gamma)`` in ``jumps``, Poisson(rate) jumps of size
    ell * Exp(gamma), E[exp(-integral of x on [0, u]) | x_0] =
    exp(A(u) + B(u) x_0). B is :func:`riccati_b`; A = alpha IB(u) +
    sum of rate * J(ell, gamma; u), where IB is :func:`integral_b` and
    J = integral over [0, u] of gamma / (gamma - ell B(s)) - 1 in closed form:

        J = -2 ell u / Q
            - (4 ell gamma / Q) log1p(P expm1(-varpi u) / (2 gamma varpi)) / P

    with P = gamma (varpi - kappa) - 2 ell, Q = gamma (kappa + varpi) + 2 ell
    (Duffie and Garleanu 2001). Every argument broadcasts; sigma = 0 and the
    P = 0 crossing are covered by the limits. Arguments are not validated:
    kappa > 0, sigma, ell, rate >= 0, gamma > 0 and u >= 0 are assumed.
    """

    kappa, sigma, u = (np.asarray(v, dtype=float) for v in (kappa, sigma, u))
    s2 = sigma * sigma
    w = np.sqrt(kappa * kappa + 2.0 * s2)
    g = w + kappa
    em = np.expm1(-w * u)
    b = 2.0 * em / (2.0 * w * np.exp(-w * u) - g * em) + 0.0
    # varpi - kappa = 2 sigma^2 / g, free of cancellation as sigma -> 0
    a = alpha * (-2.0 * u / g - (2.0 / (w * g)) * _log1p_ratio(s2 / (w * g), em))
    for rate, ell, gamma in jumps:
        big_q = gamma * g + 2.0 * ell
        big_p = 2.0 * gamma * s2 / g - 2.0 * ell
        a = a + rate * (-2.0 * ell * u / big_q - (2.0 * ell / (big_q * w))
                        * _log1p_ratio(big_p / (2.0 * gamma * w), em))
    return a, b


def exp_phi(kappa: float, sigma: float, u) -> float | np.ndarray:
    """exp(sigma^2 * integral_b(u) - kappa u), the integrating factor of the
    linearized equation, in a form that never overflows:
    4 varpi^2 e^{-varpi u} / ((varpi-kappa) e^{-varpi u} + kappa + varpi)^2.
    """

    w = varpi(kappa, sigma)
    u = _check_u(u)
    scalar = u.ndim == 0
    e = np.exp(-w * u)
    out = 4.0 * w * w * e / ((w - kappa) * e + (kappa + w)) ** 2
    return _maybe_scalar(out, scalar)


def integral_exp_phi(kappa: float, sigma: float, u) -> float | np.ndarray:
    """Integral of :func:`exp_phi` from 0 to u.

    Closed form -2 expm1(-varpi u) / ((kappa+varpi) + (varpi-kappa) e^{-varpi u}),
    increasing from 0 to 2/(kappa+varpi).
    """

    w = varpi(kappa, sigma)
    u = _check_u(u)
    scalar = u.ndim == 0
    out = -2.0 * np.expm1(-w * u) / ((kappa + w) + (w - kappa) * np.exp(-w * u))
    out = out + 0.0
    return _maybe_scalar(out, scalar)


def riccati_beta(kappa: float, sigma: float, b0: float, u) -> float | np.ndarray:
    """Solution of y' = -kappa y + sigma^2 y^2 / 2 - 1 with y(0) = b0 != 0.

    For b0 < 0 the solution stays below riccati_b, hence non-positive.
    For b0 > 0 the representation has a pole where
    1/b0 == sigma^2/2 * integral_exp_phi(u); crossing it raises.
    """

    if not (math.isfinite(b0) and b0 != 0.0):
        raise ValueError(f"b0 must be finite and nonzero, got {b0}; "
                         "use riccati_b for b0 = 0.")
    u = _check_u(u)
    scalar = u.ndim == 0
    den = 1.0 / b0 - 0.5 * sigma * sigma * integral_exp_phi(kappa, sigma, u)
    if b0 > 0.0 and np.any(den <= 0.0):
        raise ArithmeticError(
            "riccati_beta hit the finite-time pole of the b0 > 0 branch."
        )
    out = riccati_b(kappa, sigma, u) + exp_phi(kappa, sigma, u) / den
    return _maybe_scalar(np.asarray(out, dtype=float), scalar)


def integral_beta(kappa: float, sigma: float, b0: float, u) -> float | np.ndarray:
    """Integral of :func:`riccati_beta` from 0 to u, in closed form.

    The correction over integral_b integrates exactly to a logarithm:
    -2/sigma^2 * log1p(-b0 sigma^2/2 * integral_exp_phi(u)).
    """

    if not (math.isfinite(b0) and b0 != 0.0):
        raise ValueError(f"b0 must be finite and nonzero, got {b0}; "
                         "use integral_b for b0 = 0.")
    u = _check_u(u)
    scalar = u.ndim == 0
    arg = -0.5 * b0 * sigma * sigma * integral_exp_phi(kappa, sigma, u)
    if b0 > 0.0 and np.any(arg <= -1.0):
        raise ArithmeticError(
            "integral_beta hit the finite-time pole of the b0 > 0 branch."
        )
    out = integral_b(kappa, sigma, u) - (2.0 / (sigma * sigma)) * np.log1p(arg)
    return _maybe_scalar(np.asarray(out, dtype=float), scalar)


def riccati_beta_general(kappa: float, sigma: float, a_ell: float, b0: float,
                         u) -> float | np.ndarray:
    """Solution of y' = -kappa y + sigma^2 y^2 / 2 - a_ell with y(0) = b0.

    Rescales to the unit-killing equation: y(u) = a_ell * beta(kappa,
    sigma sqrt(a_ell), b0 / a_ell; u). With b0 = 0 this is
    a_ell * riccati_b(kappa, sigma sqrt(a_ell); u).
    """

    if not a_ell > 0.0:
        raise ValueError(f"a_ell must be positive, got {a_ell}")
    s = sigma * math.sqrt(a_ell)
    # test the rescaled value: a subnormal b0 / a_ell can round to zero
    r = b0 / a_ell
    if r == 0.0:
        b = riccati_b(kappa, s, u)
    else:
        b = riccati_beta(kappa, s, r, u)
    return a_ell * b


def riccati_rhs(kappa: float, sigma: float, a_ell: float = 1.0) -> Callable:
    """Right-hand side y -> -kappa y + sigma^2 y^2 / 2 - a_ell (for oracles).

    Scalar coefficients become Python floats, so a scalar RK4 loop never
    leaves float arithmetic.
    """

    kappa, sigma, a_ell = (float(v) if np.ndim(v) == 0 else v
                           for v in (kappa, sigma, a_ell))

    def rhs(y):
        return -kappa * y + 0.5 * sigma * sigma * y * y - a_ell

    return rhs


def rk4_solve(rhs: Callable, y0, u: float, step: float):
    """Classical fourth-order Runge-Kutta for scalar autonomous ODEs.

    Verification oracle only. ``y0`` may be an array of initial values;
    the step count is rounded so the integration lands exactly on ``u``.
    A scalar ``y0`` steps as a Python float, which gives the same IEEE
    results as a 0-d array without numpy's per-operation overhead.
    """

    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if u < 0.0:
        raise ValueError("u must be non-negative.")
    y = np.asarray(y0, dtype=float).copy()
    scalar = y.ndim == 0
    if scalar:
        y = float(y)
    if u == 0.0:
        return _maybe_scalar(y, scalar)
    n = max(1, int(round(u / step)))
    h = u / n
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _maybe_scalar(y, scalar)


def rk4_solve_integral(rhs: Callable, u: float, step: float) -> tuple[float, float]:
    """RK4 on the pair (y, integral of y) from (0, 0); returns both at ``u``.

    Verification oracle for transforms exp(x0 y(u) + alpha * integral of y).
    The pair steps as two Python floats, with the same IEEE operations in the
    same order as :func:`rk4_solve` on the vector right-hand side (rhs(y), y).
    """

    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if u < 0.0:
        raise ValueError("u must be non-negative.")
    n = max(1, int(round(u / step)))
    h = u / n
    y = iy = 0.0
    for _ in range(n):
        k1 = rhs(y)
        y2 = y + 0.5 * h * k1
        k2 = rhs(y2)
        y3 = y + 0.5 * h * k2
        k3 = rhs(y3)
        y4 = y + h * k3
        k4 = rhs(y4)
        iy = iy + (h / 6.0) * (y + 2.0 * y2 + 2.0 * y3 + y4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y, iy
