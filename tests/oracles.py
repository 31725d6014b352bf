"""Test oracles independent of the pricing code.

Adaptive Simpson quadrature, an error-controlled integrator independent of
the Gauss–Legendre pricing rule, which the tests hold ``exposure_limit``, the
kernels and ``bcva`` against; a generic Runge-Kutta integrator, which the
tests hold the closed forms and ``riccati.rk4_riccati`` against; and an
Euler simulation of the limit diffusion, which the tests hold the exact
sampler of ``mc_limit_transform`` against; and the default-indicator CVA
oracle, which the tests hold the gate's conditional CVA estimator against.
"""

import math

import numpy as np

from cdspool import simulation
from cdspool.errors import AccuracyError
from cdspool.exposure import exposure_limit, survival_fhat
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


def euler_limit_transform(u: float, cfg, n_paths: int, seed: int) -> tuple[float, float]:
    """E[exp(-integral of X on [0,u])] for the limit diffusion of ``cfg``, as
    ``mc_limit_transform`` estimates it, on 1000 full-truncation Euler steps
    built from the Euler engine's step updates; returns (estimate, stderr).

    Paths run in antithetic pairs (each step draws normals for half a block
    and path 2k + 1 diffuses on the negation of path 2k's), so the stderr is
    clustered by pair. The marks are drawn as ``mc_limit_transform`` draws
    them, on the same stream tag and block width.
    """

    n_steps = 1000
    dt = u / n_steps
    drift_c, drift_d = cfg.c * cfg.lambda_c, cfg.d * cfg.lambda_hat
    sqrt_dt = math.sqrt(dt)
    vals = np.empty(n_paths)
    bf = simulation._NARROW_BLOCK_SIZE

    def run_block(rng, r0, r1):
        y1 = rng.standard_exponential(bf) / cfg.gamma1
        y2 = rng.standard_exponential(bf) / cfg.gamma2
        drift0 = cfg.alpha + drift_c * y1 + drift_d * y2
        x = np.full(bf, cfg.x0, dtype=float)
        xp = np.maximum(x, 0.0)
        xnew, z, a, v = (np.empty(bf) for _ in range(4))
        integ = np.zeros(bf)
        for _ in range(n_steps):
            simulation._draw_pairs(rng, z, v, sqrt_dt)
            simulation._euler(x, xp, drift0, cfg.kappa, cfg.sigma, dt, z, a, v)
            simulation._truncate_and_integrate(x, xp, xnew, integ, dt, a)
            xp, xnew = xnew, xp
        vals[r0:r1] = np.exp(-integ[:r1 - r0])

    simulation._run_blocks(seed, simulation._BLOCK_LIMIT, n_paths, bf, 1, run_block)
    return float(vals.mean()), simulation._pair_stderr(vals)


def nested_mc_cva(tau: np.ndarray, cfg, loss_b: float, maturity: float) -> np.ndarray:
    """Per-path values of the nested Monte-Carlo CVA oracle at ``maturity``:
    read side B's default time from tau, the pair alone's default times at
    maturity (paths by sides A, B), apply the limit exposure there, weight
    by pool survival.

    The pool's limit default time is conditionally independent of the
    counterparties, so the indicator of the pool outliving tau_B integrates
    to the survival function evaluated there. The gate's estimator is this
    oracle's conditional expectation given the intensity paths.
    """

    tau_a, tau_b = tau[:, 0], tau[:, 1]
    hit = (tau_b <= np.minimum(tau_a, maturity)) & (tau_b > 0)
    vals = np.zeros(len(tau))
    tb = tau_b[hit]
    vals[hit] = (np.exp(-cfg.r * tb) * survival_fhat(tb, cfg)
                 * np.maximum(exposure_limit(tb, maturity, cfg), 0.0))
    return vals * loss_b
