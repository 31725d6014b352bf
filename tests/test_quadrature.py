import math

import numpy as np
import pytest

from cdspool.errors import AccuracyError
from cdspool.quadrature import (composite_simpson, gauss_legendre_16, simpson_adaptive,
                                simpson_weights)


def test_weights_sum_to_interval_length():
    w = simpson_weights(8, 0.25)
    assert w.sum() == pytest.approx(8 * 0.25)
    with pytest.raises(ValueError):
        simpson_weights(7, 0.1)
    with pytest.raises(ValueError):
        simpson_weights(0, 0.1)


def test_composite_simpson_polynomial_exact():
    # Simpson is exact through cubics
    val = composite_simpson(lambda x: x**3 - 2 * x + 1, 0.0, 2.0, 2)
    assert val == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-14)


def test_composite_simpson_empty_interval():
    assert composite_simpson(np.exp, 1.0, 1.0, 100) == 0.0


def test_adaptive_matches_analytic():
    val = simpson_adaptive(np.exp, 0.0, 1.0, rel_tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, rel=1e-12)
    val = simpson_adaptive(lambda x: np.sin(3 * x), 0.0, 2.0, rel_tol=1e-10)
    assert val == pytest.approx((1 - math.cos(6.0)) / 3.0, rel=1e-9)


def test_adaptive_raises_when_refinement_exhausted():
    # a kink keeps the Richardson estimate from collapsing at tiny budgets
    with pytest.raises(AccuracyError):
        simpson_adaptive(lambda x: np.abs(x - 0.3141), 0.0, 1.0, rel_tol=1e-14,
                         max_panels=64)


def test_adaptive_rejects_reversed_limits():
    with pytest.raises(ValueError):
        simpson_adaptive(np.exp, 1.0, 0.0)


def test_gauss_legendre_16_literals_equal_leggauss():
    nodes, weights = gauss_legendre_16()
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)
