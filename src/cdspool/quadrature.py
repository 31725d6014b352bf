"""Quadrature rules.

The pricing rule is 16-node Gauss–Legendre on whole ``GL_PANEL_YEARS``
panels plus the remainder, laid out by :func:`gauss_legendre_panels` for
every integral on the pricing path (the premium leg of the book that
``simulation.exact_book_values`` prices, the limit exposure, the kernels'
constant terms, the bilateral adjustment), all smooth products of
exponentials and rational functions of exponentials. The rule has no error
estimate; its accuracy depends on how fast the integrand decays within a
panel. Against adaptive Simpson at rel_tol 1e-13 on the fig5 pool (x0 = 10,
alpha = 5), whose survival decays within weeks, ``exposure_limit`` errs
2.9e-15 at v = 3 but 8.6e-7 absolute (2.2e-6 relative) at v = 10, one full
ten-year panel; the kernels' constant terms err at rounding level on a
three-year panel and by about 1e-11 on a full one for the shipped pair.
Error-controlled panels are ROADMAP item 1.

Composite Simpson is the validation gate's independent oracle.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = ["GL_PANEL_YEARS", "composite_simpson", "gauss_legendre_16",
           "gauss_legendre_panels", "simpson_weights"]

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


def gauss_legendre_panels(v):
    """16-node Gauss–Legendre on [0, v] for every entry of v, one panel at
    a time: (nodes, weights) of shape v.shape + (16,) for each whole
    GL_PANEL_YEARS panel, then the remainder; panels past a point's own v
    have zero width. At least one panel comes out, so sums keep the
    integrand's leading axes when every v is 0. Each point's nodes depend
    only on its own v: a vector call equals the scalar calls bit for bit.
    A panel count past what an array can index raises ConfigError before
    the first allocation.
    """

    v = np.asarray(v, dtype=float)
    nodes, weights = gauss_legendre_16()
    panels = v.max(initial=0.0) / GL_PANEL_YEARS
    if not panels < sys.maxsize // 8:
        raise ConfigError(f"{panels:.3g} quadrature panels of {GL_PANEL_YEARS:g} years, more "
                          f"than an array of panel offsets can index.")
    n_panels = max(1, math.ceil(panels))
    for lo in GL_PANEL_YEARS * np.arange(n_panels):
        half = 0.5 * np.clip(v - lo, 0.0, GL_PANEL_YEARS)[..., None]
        yield lo + half * (1.0 + nodes), half * weights


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
