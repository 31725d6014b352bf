"""Quadrature rules.

The pricing rule is 16-node Gauss–Legendre on panels of at most
``GL_PANEL_YEARS``: every integrand on the pricing path (the premium leg of
``mc_exposure``, the limit exposure, the bilateral adjustment) is a smooth
product of exponentials and rational functions of exponentials. The rule
has no error estimate, and its accuracy depends on how fast the integrand
decays within a panel. Against ``simpson_adaptive(rel_tol=1e-13)`` on the
fig5 pool (x0 = 10, alpha = 5), whose survival decays within weeks,
``exposure_limit`` errs 2.9e-15 at v = 3 but 8.6e-7 absolute (2.2e-6
relative) at v = 10, one full ten-year panel. Error-controlled panels are
ROADMAP item 1. The two constant terms of the counterparty kernels use the
same rule; there a three-year panel errs at rounding level and a full
ten-year panel by about 1e-11 for the shipped counterparty pair.

Composite Simpson with doubling refinement stays as the independent
oracle the tests and the validation gate check those rules against.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import AccuracyError

__all__ = ["GL_PANEL_YEARS", "composite_simpson", "gauss_legendre_16",
           "gauss_legendre_integral", "gauss_legendre_rule", "simpson_adaptive",
           "simpson_weights"]

GL_PANEL_YEARS = 10.0


# The positive half of numpy.polynomial.legendre.leggauss(16), whose nodes
# and weights are exactly symmetric about 0, written out so that no run
# imports numpy.polynomial (numpy 2 loads it lazily, on first use).
_GL16_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
               0.6178762444026438, 0.755404408355003, 0.8656312023878318,
               0.9445750230732326, 0.9894009349916499)
_GL16_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                 0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                 0.062253523938647456, 0.027152459411754176)


@functools.cache
def gauss_legendre_16() -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of 16-point Gauss–Legendre on [-1, 1]."""

    nodes, weights = np.array(_GL16_NODES), np.array(_GL16_WEIGHTS)
    return (np.concatenate([-nodes[::-1], nodes]),
            np.concatenate([weights[::-1], weights]))


def gauss_legendre_rule(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 16-point Gauss–Legendre on ceil((b - a) /
    GL_PANEL_YEARS) equal panels of [a, b], in increasing node order."""

    nodes, weights = gauss_legendre_16()
    n = math.ceil((b - a) / GL_PANEL_YEARS)
    h = (b - a) / n
    x = a + (h * np.arange(n)[:, None] + 0.5 * h * (1.0 + nodes)).ravel()
    return x, 0.5 * h * np.tile(weights, n)


def gauss_legendre_integral(f: Callable[[np.ndarray], np.ndarray], v):
    """Integral of f over [0, v] for every entry of v.

    16-node Gauss–Legendre on whole GL_PANEL_YEARS panels of [0, v] plus
    the remainder, accumulated node by node. ``f`` takes nodes of shape
    v.shape + (16,) and returns values with that shape as its trailing
    axes; any leading axes integrate several functions at once. Each value
    depends only on its own v, so a vector call equals the scalar calls bit
    for bit.
    """

    v = np.asarray(v, dtype=float)
    nodes, weights = gauss_legendre_16()
    integral = 0.0
    # at least one panel, so the result has f's leading axes even when
    # every v is 0; panels past a point's own v have zero width and add 0
    n_panels = max(1, math.ceil(v.max(initial=0.0) / GL_PANEL_YEARS))
    for lo in GL_PANEL_YEARS * np.arange(n_panels):
        half = 0.5 * np.clip(v - lo, 0.0, GL_PANEL_YEARS)
        y = f(lo + half[..., None] * (1.0 + nodes))
        panel = 0.0
        for j, w in enumerate(weights):
            panel = panel + w * y[..., j]
        integral = integral + half * panel
    return integral


def simpson_weights(n_panels: int, h: float) -> np.ndarray:
    """Weights of the composite Simpson rule on ``n_panels`` uniform panels."""

    if n_panels < 2 or n_panels % 2:
        raise ValueError("n_panels must be a positive even integer.")
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def composite_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                      n_panels: int) -> float:
    """Composite Simpson estimate of ``∫_a^b f`` using a vectorized integrand."""

    if b == a:
        return 0.0
    x = np.linspace(a, b, n_panels + 1)
    y = np.asarray(f(x), dtype=float)
    return float(np.sum(simpson_weights(n_panels, (b - a) / n_panels) * y))


def simpson_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                     rel_tol: float = 1e-8, abs_tol: float = 0.0,
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
