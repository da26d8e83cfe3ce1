"""Tensor Gauss-Legendre references for the Mehta integrals and de Bruijn's reduction, N <= 3.

The package takes both from `densities.coordinate_cdf`'s one-dimensional
tables (`densities._origin_mass`, `densities.de_bruijn_check`).  These
brute-force forms integrate the integrands over the chamber with
`quadrature.chamber_integral` instead, so the tests can hold the two
routes against each other.
"""

import functools
import math

import numpy as np

from viciouskit.densities import km_density
from viciouskit.quadrature import chamber_integral
from viciouskit.special_functions import h_poly

# (wall, beta) of each origin law -> the (weight, gamma, a) of mehta_integral
# in its constant: c, c', c_hat and c_hat' of special_functions.constants
MEHTA_LAWS = {(False, 1): ("plain", 0.5, 0.5), (False, 2): ("plain", 1.0, 0.5),
              (True, 1): ("squared-diff-abs", 0.5, 1.0),
              (True, 2): ("squared-diff-abs", 1.0, 1.5)}


def mehta_integral_quadrature(n, gamma, a, weight="plain"):
    """Numeric left-hand side of special_functions.mehta_integral, n <= 3.

    Integrates over the ordered sector (times n!) where the integrand is
    smooth, with tensor Gauss-Legendre of order 80, cut at 9 standard
    deviations.
    """
    if weight == "plain":
        def f(u):
            return np.exp(-a * np.sum(u ** 2, axis=-1)) * np.abs(h_poly(u)) ** (2 * gamma)

        cut = 9.0 * math.sqrt(1.0 / (2 * a))
        return chamber_integral(f, n, -cut, cut) * math.factorial(n)

    def f(u):
        return (np.exp(-0.5 * np.sum(u ** 2, axis=-1)) * np.abs(h_poly(u ** 2)) ** (2 * gamma)
                * np.prod(np.abs(u) ** (2 * a - 1), axis=-1))

    # the integrand is even in each coordinate: integrate over the positive
    # ordered sector and multiply by 2^n n!
    return chamber_integral(f, n, 0.0, 9.0) * math.factorial(n) * 2 ** n


def km_chamber_integral(x, wall=False, order=80):
    """Chamber integral of km_density(1/2, x, .), which is survival(1/2, x), n <= 3.

    The integral runs from 7 below the innermost point (0 behind the wall)
    to 7 past the outermost.
    """
    x = np.asarray(x, dtype=float)
    lo = 0.0 if wall else float(x.min() - 7.0)
    return chamber_integral(functools.partial(km_density, 0.5, x, wall=wall), len(x), lo,
                            float(x.max() + 7.0), order=order)
