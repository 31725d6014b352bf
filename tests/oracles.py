"""Adaptive Simpson quadrature (test oracle).

An error-controlled integrator independent of the Gauss–Legendre pricing
rule, which the tests hold ``exposure_limit``, the kernels and ``bcva``
against.
"""

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
