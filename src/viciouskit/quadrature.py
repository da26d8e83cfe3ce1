"""Tensor Gauss-Legendre quadrature over ordered (Weyl chamber) regions, up to three dimensions.

It serves `verify`'s N = 2 normalization checks, which must integrate the density code itself,
and the tests' references; `densities.coordinate_cdf`'s tables do every other chamber integral.
The normalization checks run at harness.NORMALIZATION_ORDER (40 nodes per axis), where each of
their masses is within 1e-13 of its value at order 120; an order-n rule evaluates its integrand
on n^N points.
"""

import numpy as np

from .special_functions import _gl_nodes

__all__ = ["ordered_grid", "chamber_integral"]


SLAB_POINTS = 1 << 18   # quadrature points passed to the integrand per call


def ordered_grid(n, lo, hi, order=80):
    """Quadrature points and weights for {lo <= y_1 < ... < y_n <= hi}.

    Maps each coordinate to the remaining interval [y_{k-1}, hi] with a
    Gauss-Legendre rule; returns (points, weights) with points of shape
    (order,) * n + (n,) and weights of shape (order,) * n.
    """
    if n < 1 or n > 3:
        raise ValueError("ordered_grid supports 1 <= n <= 3")
    xi, wi = _gl_nodes(order)
    u = 0.5 * (xi + 1.0)        # nodes on [0, 1]
    w = 0.5 * wi

    shapes = [tuple(order if k == d else 1 for k in range(n)) for d in range(n)]
    ys = []
    weight = np.ones((1,) * n)
    prev = lo
    for d in range(n):
        ud = u.reshape(shapes[d])
        wd = w.reshape(shapes[d])
        span = hi - prev
        y = prev + ud * span
        weight = weight * wd * span
        ys.append(y)
        prev = y
    pts = np.stack(np.broadcast_arrays(*ys), axis=-1)
    weight = np.broadcast_to(weight, pts.shape[:-1])
    return pts, weight


def chamber_integral(f, n, lo, hi, order=80):
    """Integral of f over the ordered box {lo <= y_1 < ... < y_n <= hi}.

    f must accept an array of shape (..., n) and return shape (...).  It is
    called on slabs of the first node axis, at most SLAB_POINTS points each
    (one slab row when a row alone is larger), so the integrand's
    temporaries stay bounded whatever the order; the slab sums are added.
    """
    pts, wts = ordered_grid(n, lo, hi, order)
    rows = max(SLAB_POINTS // order ** (n - 1), 1)
    return float(sum(np.sum(f(pts[i:i + rows]) * wts[i:i + rows])
                     for i in range(0, order, rows)))
