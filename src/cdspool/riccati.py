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

:func:`rk4_riccati` is a Runge-Kutta oracle for the equation, with the
running integral of its solution: the validation gate and the tests hold the
closed forms to it, and no pricing path calls it.
"""

from __future__ import annotations

import math

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
    "rk4_riccati",
]


# below this |p|, log1p(p x) / p equals its limit x to rounding, and p x
# would lose digits to subnormal underflow
_TINY = 1e-100


def _check_rates(kappa: float, sigma: float) -> None:
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def _check_u(u):
    u = np.asarray(u, dtype=float)
    # the array method skips np.all's dispatch, which the kernels' per-panel
    # calls would feel
    if not ((u >= 0.0) & (u < np.inf)).all():
        raise ValueError("u must be finite and non-negative.")
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
    P = 0 crossing are covered by the limits. A negative or non-finite u
    raises ValueError; the parameters are not validated: kappa > 0, sigma, ell,
    rate >= 0 and gamma > 0 are assumed.
    """

    u = _check_u(u)
    kappa, sigma = (np.asarray(v, dtype=float) for v in (kappa, sigma))
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

    if not 0.0 < a_ell < math.inf:
        raise ValueError(f"a_ell must be positive and finite, got {a_ell}")
    s = sigma * math.sqrt(a_ell)
    # test the rescaled value: a subnormal b0 / a_ell can round to zero
    r = b0 / a_ell
    if r == 0.0:
        b = riccati_b(kappa, s, u)
    else:
        b = riccati_beta(kappa, s, r, u)
    return a_ell * b


def rk4_riccati(kappa: float, sigma: float, a_ell: float, y0: float, lags,
                step: float) -> list[tuple[float, float]]:
    """RK4 on y' = -kappa y + sigma^2 y^2 / 2 - a_ell from y(0) = y0, carrying
    the running integral of y; returns (y(u), integral of y on [0, u]) for
    each lag u.

    Verification oracle for the closed forms (the validation gate and the
    tests hold them to it). A lag u takes n = round(u / step) steps of
    h = u / n, and one run up to the last lag serves every lag, so the lags
    must be ascending and share one float h; lags that do not raise instead
    of being rounded onto one grid. The steps run inline on Python floats, in
    the same IEEE operations as RK4 on the vector right-hand side (rhs(y), y),
    so each lag's result is bit-equal to its own run.
    """

    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    lags = [float(u) for u in lags]
    if not all(0.0 <= u < math.inf for u in lags):
        raise ValueError(f"lags must be finite and non-negative, got {lags}")
    if any(v < u for u, v in zip(lags, lags[1:])):
        raise ValueError(f"lags must be ascending, got {lags}")
    # u / step is monotone in u, so the step counts ascend with the lags
    counts = [max(1, round(u / step)) if u > 0.0 else 0 for u in lags]
    steps = {u / n for u, n in zip(lags, counts) if n}
    if len(steps) > 1:
        raise ValueError(f"lags {lags} do not share one step near {step}")
    h = steps.pop() if steps else 0.0
    # hoisted values keep every rounding of -kappa y + (sigma^2 / 2) y^2 - a
    neg_k, c, a = -float(kappa), 0.5 * float(sigma) * float(sigma), float(a_ell)
    half_h, sixth_h = 0.5 * h, h / 6.0
    y, iy, done = float(y0), 0.0, 0
    out = []
    for n in counts:
        for _ in range(n - done):
            k1 = neg_k * y + c * y * y - a
            y2 = y + half_h * k1
            k2 = neg_k * y2 + c * y2 * y2 - a
            y3 = y + half_h * k2
            k3 = neg_k * y3 + c * y3 * y3 - a
            y4 = y + h * k3
            k4 = neg_k * y4 + c * y4 * y4 - a
            iy = iy + sixth_h * (y + 2.0 * y2 + 2.0 * y3 + y4)
            y = y + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        done = n
        out.append((y, iy))
    return out
