import math

import numpy as np
import pytest

from tensor_references import MEHTA_LAWS, mehta_integral_quadrature
from viciouskit.densities import _origin_mass
from viciouskit.special_functions import (_ERF_CHUNK, _erf, constants, h_hat_poly, h_poly,
                                          mehta_integral, psi, psi_hat)


def test_psi_is_gaussian_mass():
    assert psi(0.0) == 0.0
    assert psi(10.0) == pytest.approx(1.0, abs=1e-12)
    # independent series value of erf(0.5)
    assert psi(0.5) == pytest.approx(0.5204998778130465, abs=1e-14)
    assert psi(-0.5) == -psi(0.5)


def _erf_grid():
    # [-27, 27] (psi_hat's arguments), both sides of each range edge, tiny and subnormal
    # magnitudes of both signs, signed zeros, infinities and the largest floats
    edges = np.array([0.84375, 1.25, 1 / 0.35, 6.0])
    near = (edges[:, None] * (1 + np.linspace(-1e-3, 1e-3, 41))).ravel()
    tiny = np.concatenate([np.geomspace(1e-300, 0.5, 300),
                           [5e-324, 1e-320, 1e-310, np.finfo(float).tiny]])
    grid = np.concatenate([np.linspace(-27.0, 27.0, 2701), near, tiny,
                           [0.0, np.inf, np.finfo(float).max]])
    return np.concatenate([grid, -grid])


def _erf_ulps(values, grid, mp):
    # |value - erf| in ulps of the correctly rounded erf, erf taken at 40 digits
    with mp.workdps(40):
        exact = [mp.erf(mp.mpf(float(x))) for x in grid]
        err = np.array([float(abs(mp.mpf(float(v)) - e)) for v, e in zip(values, exact)])
    return err / np.spacing(np.abs([float(e) for e in exact]))


def test_erf_matches_mpmath_to_an_ulp():
    mp = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    grid = _erf_grid()
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        ours = _erf(grid)
    ulps = _erf_ulps(ours, grid, mp)
    assert ulps.max() < 1.0
    assert ulps.max() <= _erf_ulps(special.erf(grid), grid, mp).max()
    assert np.array_equal(np.signbit(ours), np.signbit(grid))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert np.isnan(_erf(np.nan)) and np.isnan(_erf(np.array([1.0, np.nan]))[1])


def test_erf_does_not_depend_on_batch_size_or_layout():
    # every entry gets the bits it gets alone, in any shape, order or stride, and across
    # the chunk boundary
    rng = np.random.Generator(np.random.Philox(key=[23, 0]))
    x = rng.uniform(-7.0, 7.0, (2 * _ERF_CHUNK // 50 + 3, 50))
    alone = np.array([_erf(v) for v in x.ravel()]).reshape(x.shape)
    wide = np.zeros((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    views = [x, np.asfortranarray(x), x.T, wide[:, ::2], x[:1], x[::-1]]
    refs = [alone, alone, alone.T, alone, alone[:1], alone[::-1]]
    for view, ref in zip(views, refs):
        assert np.array_equal(_erf(view).view(np.int64), ref.view(np.int64))
    assert type(_erf(0.5)) is np.float64 and np.ndim(_erf(np.array(0.5))) == 0


# frozen adaptive-quadrature values of the double integral
PSI_HAT_TABLE = [
    (0.7, 1.3, 0.212078881587662),
    (0.2, 0.5, 0.007949801776976),
    (1.0, 2.5, 0.709875601364575),
]


@pytest.mark.parametrize("u1,u2,ref", PSI_HAT_TABLE)
def test_psi_hat_against_frozen_quadrature(u1, u2, ref):
    assert psi_hat(u1, u2) == pytest.approx(ref, abs=1e-10)


def test_psi_hat_edges_and_domain():
    assert psi_hat(0.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert psi_hat(1.5, 1.5) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        psi_hat(-0.1, 1.0)
    with pytest.raises(ValueError):
        psi_hat(1.0, 0.5)


def test_psi_hat_broadcasts():
    u1 = np.array([0.7, 0.2])
    u2 = np.array([1.3, 0.5])
    vals = psi_hat(u1, u2)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(PSI_HAT_TABLE[0][2], abs=1e-10)
    assert vals[1] == pytest.approx(PSI_HAT_TABLE[1][2], abs=1e-10)


def test_psi_hat_limit_is_psi_product_difference():
    # as u1, u2 -> inf with fixed order the kernel tends to 1
    assert psi_hat(8.0, 16.0) == pytest.approx(1.0, abs=1e-10)


def _psi_hat_mp(mp, u1, u2):
    """psi_hat from its definition at mpmath's working precision.

    The inner integral is the same erf difference; the outer ones are
    tanh-sinh quadratures split at fixed points.  Past v = 12 the outer
    integrands are below e^{-144} and are left off.
    """
    u1, u2 = mp.mpf(u1), mp.mpf(u2)
    d, s = u2 - u1, u1 + u2

    def outer(f, a, b):
        return mp.quad(f, [a] + [c for c in (0.5, 1, 2, 3, 4, 6, 9) if a < c < b] + [b])

    t1 = outer(lambda v: mp.exp(-v * v) * (mp.erf(v + d) - mp.erf(v - d)), mp.mpf(0), min(u1, 12))
    t2 = outer(lambda v: mp.exp(-v * v) * (mp.erf(v - d) - mp.erf(v - s)), u1, min(u2, 12)) \
        if u1 < 12 else 0
    return (t1 - t2) / mp.sqrt(mp.pi)


def _psi_hat_rel_errors(points):
    mp = pytest.importorskip("mpmath")
    pts = np.array(points)
    got = psi_hat(pts[:, 0], pts[:, 1])
    with mp.workdps(40):
        ref = np.array([float(_psi_hat_mp(mp, u1, u2)) for u1, u2 in points])
    return np.abs(got - ref) / ref


def test_psi_hat_matches_mpmath_on_grid():
    # u1 from 0.01 to 100 with u2 - u1 >= 0.05 u1: below u ~ 0.1 the two
    # terms of psi_hat cancel to O(u^4) from O(u^2), which sets the error
    points = [(u1, u1 * r) for u1 in (0.01, 0.03, 0.1, 0.5, 1.0, 3.0, 6.5, 10.0, 100.0)
              for r in (1.05, 1.3, 3.0, 20.0)]
    assert np.max(_psi_hat_rel_errors(points)) <= 5e-12


def test_psi_hat_matches_mpmath_near_collision():
    # u2 - u1 = 1e-3 u1 and 1e-2 u1, from u1 = 1e-3 to 100
    points = [(u, u * (1 + g)) for u in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0) for g in (1e-3, 1e-2)]
    assert np.max(_psi_hat_rel_errors(points)) <= 1e-9


def test_chamber_polynomials():
    x = np.array([1.0, 3.0, 4.0])
    assert h_poly(x) == pytest.approx((3 - 1) * (4 - 1) * (4 - 3))
    assert h_hat_poly(x) == pytest.approx((9 - 1) * (16 - 1) * (16 - 9) * 1 * 3 * 4)
    # batch evaluation over a leading axis
    xs = np.stack([x, 2 * x])
    vals = h_poly(xs)
    assert vals.shape == (2,)
    assert vals[1] == pytest.approx(8 * vals[0])


def test_constants_frozen_values():
    c2 = constants(2)
    # c_bar_2 = sqrt(pi): direct ratio of the two normalizations
    assert c2.c_bar == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert c2.c == pytest.approx(0.5 / (math.gamma(0.5) * math.gamma(1.0)), rel=1e-14)
    c1 = constants(1)
    assert c1.c == pytest.approx(2 ** -0.5 / math.gamma(0.5), rel=1e-14)
    assert c1.c_prime == pytest.approx((2 * math.pi) ** -0.5, rel=1e-14)
    assert c1.c_tilde == pytest.approx(math.sqrt(math.pi / 2), rel=1e-14)
    c3 = constants(3)
    assert c3.c_bar == pytest.approx(
        math.pi ** 1.5 * math.gamma(1) * math.gamma(2) * math.gamma(3)
        / (math.gamma(0.5) * math.gamma(1.0) * math.gamma(1.5)), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_constants_match_gamma_products(n):
    # the Mehta-integral normalizations against their gamma-function products
    lg_half = sum(math.lgamma(j / 2) for j in range(1, n + 1))
    lg_int = sum(math.lgamma(j) for j in range(1, n + 1))
    lg_2int = sum(math.lgamma(2 * j) for j in range(1, n + 1))
    ref = {"c": math.exp(-0.5 * n * math.log(2) - lg_half),
           "c_prime": math.exp(-0.5 * n * math.log(2 * math.pi) - lg_int),
           "c_hat": math.exp(-lg_int),
           "c_hat_prime": math.exp(0.5 * n * math.log(2 / math.pi) - lg_2int)}
    consts = constants(n)
    for name, value in ref.items():
        assert getattr(consts, name) == pytest.approx(value, rel=1e-14, abs=0), name


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("weight", ["plain", "squared-diff-abs"])
def test_mehta_integrals_match_quadrature(n, weight):
    # the closed forms at (1/2, 1/2) and at the parameters of constants(),
    # and there the chamber masses of coordinate_cdf's origin bases, against
    # tensor quadrature
    wall = weight == "squared-diff-abs"
    pairs = {(0.5, 0.5): None}
    pairs.update({(gamma, a): beta for (w, beta), (_, gamma, a) in MEHTA_LAWS.items() if w == wall})
    for (gamma, a), beta in pairs.items():
        quad = mehta_integral_quadrature(n, gamma, a, weight=weight)
        assert mehta_integral(n, gamma, a, weight=weight) == pytest.approx(quad, rel=1e-6)
        if beta:
            mass = _origin_mass(n, wall, beta) * math.factorial(n) * 2 ** (n * wall)
            assert mass == pytest.approx(quad, rel=1e-6)


def test_mehta_integral_rejects_bad_input():
    with pytest.raises(ValueError):
        mehta_integral(0, 0.5, 0.5)
    with pytest.raises(ValueError):
        mehta_integral(2, 0.5, 0.5, weight="nope")
