import math
import tracemalloc

import numpy as np
import pytest

from tensor_references import km_chamber_integral
from viciouskit import quadrature
from viciouskit.densities import survival
from viciouskit.quadrature import chamber_integral, ordered_grid


def test_ordered_volume_is_simplex_volume():
    # vol{0 < y1 < y2 < y3 < 1} = 1/3!
    for n in (1, 2, 3):
        vol = chamber_integral(lambda y: np.ones(y.shape[:-1]), n, 0.0, 1.0)
        assert vol == pytest.approx(1.0 / math.factorial(n), rel=1e-12)


def test_gaussian_chamber_mass():
    # the standard Gaussian puts mass 1/n! on the ordered sector
    def f(y):
        return np.exp(-np.sum(y ** 2, axis=-1) / 2) / (2 * math.pi) ** (y.shape[-1] / 2)

    for n in (2, 3):
        mass = chamber_integral(f, n, -8.0, 8.0, order=90)
        assert mass == pytest.approx(1.0 / math.factorial(n), rel=1e-8)


def test_polynomial_moment():
    # int_{0<y1<y2<1} y1 y2 = 1/8
    val = chamber_integral(lambda y: y[..., 0] * y[..., 1], 2, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 8.0, rel=1e-12)


def test_ordered_grid_shapes_and_bounds():
    pts, wts = ordered_grid(3, -1.0, 2.0, order=20)
    assert pts.shape == (20, 20, 20, 3)
    assert wts.shape == (20, 20, 20)
    assert np.all(pts[..., 0] <= pts[..., 1])
    assert np.all(pts[..., 1] <= pts[..., 2])
    assert pts.min() >= -1.0 and pts.max() <= 2.0
    with pytest.raises(ValueError):
        ordered_grid(4, 0.0, 1.0)


@pytest.mark.parametrize("slab_points", [quadrature.SLAB_POINTS, 500])
@pytest.mark.parametrize("order", [90, 120])
def test_chamber_integral_slabs_match_one_shot_sum(order, slab_points, monkeypatch):
    # the slabs split the first node axis; neither order is a slab multiple,
    # and the small cap also splits n = 2 and gives one-row slabs at n = 3
    monkeypatch.setattr(quadrature, "SLAB_POINTS", slab_points)

    def f(y):
        return np.exp(-np.sum((y - 0.3) ** 2, axis=-1)) * (1.0 + y[..., -1] ** 2)

    for n in (1, 2, 3):
        pts, wts = ordered_grid(n, -5.0, 6.0, order)
        one_shot = float(np.sum(f(pts) * wts))
        assert chamber_integral(f, n, -5.0, 6.0, order) == pytest.approx(one_shot, rel=1e-13)


def test_de_bruijn_n3_memory_is_bounded():
    # the km_density chamber integral of de Bruijn's reduction; one-shot
    # evaluation of the 120^3-point integrand peaked at 290 MiB
    x = np.array([0.3, 1.1, 2.2])
    tracemalloc.start()
    try:
        integral = km_chamber_integral(x, order=120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert integral == pytest.approx(survival(0.5, x), rel=1e-4)
    assert peak < 128 * 2 ** 20
