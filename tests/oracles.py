"""Test oracles independent of the pricing code.

Adaptive Simpson quadrature, an error-controlled integrator independent of
the Gauss–Legendre pricing rule, which the tests hold ``exposure_limit``, the
kernels and ``bcva`` against; and a generic Runge-Kutta integrator, which the
tests hold the closed forms and ``riccati.rk4_riccati`` against.
"""

import numpy as np

from cdspool.errors import AccuracyError
from cdspool.quadrature import composite_simpson


def simpson_adaptive(f, a: float, b: float, rel_tol: float = 1e-8, abs_tol: float = 0.0,
                     n0: int = 8, max_panels: int = 1 << 20) -> float:
    """Integrate ``f`` on [a, b] by Simpson panel doubling.

    Stops when the Richardson error estimate |S_2n - S_n| / 15 is within
    ``rel_tol * |S_2n| + abs_tol`` and returns the extrapolated value.
    Raises :class:`AccuracyError` if ``max_panels`` is hit first.
    """

    if b == a:
        return 0.0
    if b < a:
        raise ValueError("Integration limits must satisfy a <= b.")
    n = n0 if n0 % 2 == 0 else n0 + 1
    prev = composite_simpson(f, a, b, n)
    while n <= max_panels:
        n *= 2
        cur = composite_simpson(f, a, b, n)
        err = abs(cur - prev) / 15.0
        if err <= rel_tol * abs(cur) + abs_tol:
            return cur + (cur - prev) / 15.0
        prev = cur
    raise AccuracyError(
        f"Simpson refinement did not reach rel_tol={rel_tol:g} within "
        f"{max_panels} panels on [{a:g}, {b:g}]."
    )


def riccati_rhs(kappa: float, sigma: float, a_ell: float = 1.0):
    """Right-hand side y -> -kappa y + sigma^2 y^2 / 2 - a_ell.

    Scalar coefficients become Python floats, so a scalar RK4 loop never
    leaves float arithmetic.
    """

    kappa, sigma, a_ell = (float(v) if np.ndim(v) == 0 else v
                           for v in (kappa, sigma, a_ell))

    def rhs(y):
        return -kappa * y + 0.5 * sigma * sigma * y * y - a_ell

    return rhs


def rk4_solve(rhs, y0, u: float, step: float):
    """Classical fourth-order Runge-Kutta for autonomous ODEs.

    ``y0`` may be an array of initial values; the step count is rounded so
    the integration lands exactly on ``u``. A scalar ``y0`` steps as a Python
    float, which gives the same IEEE results as a 0-d array.
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
        return y
    n = max(1, int(round(u / step)))
    h = u / n
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y
