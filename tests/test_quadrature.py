import math

import numpy as np
import pytest

from cdspool.errors import AccuracyError
from cdspool.quadrature import (composite_simpson, gauss_legendre_16, gauss_legendre_panels,
                                simpson_weights)

from oracles import simpson_adaptive

# either side of the 10-year panel boundary, on it, and past the second one
LENGTHS = [0.0, 3.0, 10.0 - 1e-9, 10.0, 10.0 + 1e-9, 25.0]


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


@pytest.mark.parametrize("v", [*LENGTHS, LENGTHS])
def test_gauss_legendre_panel_weights_sum_to_the_interval_length(v):
    total = sum(w.sum(axis=-1) for _, w in gauss_legendre_panels(v))
    np.testing.assert_allclose(total, v, rtol=1e-14, atol=0.0)


def test_gauss_legendre_panels_integrate_degree_31_across_panel_boundaries():
    # 16 nodes per panel are exact through degree 31; [0, 25] takes the
    # panels [0, 10], [10, 20] and [20, 25]. The Chebyshev polynomial T_31
    # on [0, 25] swings through [-1, 1] 31 times; T_32 would miss by 1.4e-12.
    def cheb(n, y):
        return np.cos(n * np.arccos(y))

    def antiderivative(y):
        return 0.5 * (cheb(32, y) / 32.0 - cheb(30, y) / 30.0)

    v = np.array([10.0, 10.0 + 1e-9, 20.0, 25.0])
    got = sum(np.sum(w * cheb(31, x / 12.5 - 1.0), axis=-1) for x, w in gauss_legendre_panels(v))
    want = 12.5 * (antiderivative(v / 12.5 - 1.0) - antiderivative(-1.0))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("v", [3.0, [0.0, 25.0], [[3.0, 10.0, 30.0], [0.0, 12.0, 10.0]]])
def test_gauss_legendre_panels_broadcast_over_v(v):
    panels = list(gauss_legendre_panels(v))
    assert len(panels) == max(1, math.ceil(np.max(v) / 10.0))
    for x, w in panels:
        assert x.shape == w.shape == np.shape(v) + (16,)


def test_gauss_legendre_panels_vector_call_equals_scalar_calls():
    vector = list(gauss_legendre_panels(LENGTHS))
    for i, v in enumerate(LENGTHS):
        scalar = list(gauss_legendre_panels(v))
        for p, (x, w) in enumerate(vector):
            if p < len(scalar):
                assert np.array_equal(x[i], scalar[p][0])
                assert np.array_equal(w[i], scalar[p][1])
            else:  # past this point's own v: zero width
                assert not w[i].any()
