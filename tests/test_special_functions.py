import math
from fractions import Fraction

import numpy as np
import pytest

from viciouskit.special_functions import (constants, h_hat_poly, h_poly,
                                          mehta_integral,
                                          mehta_integral_quadrature, psi,
                                          psi_hat, schur, schur_principal,
                                          sp_character, sp_principal)


def test_psi_is_gaussian_mass():
    assert psi(0.0) == 0.0
    assert psi(10.0) == pytest.approx(1.0, abs=1e-12)
    # independent series value of erf(0.5)
    assert psi(0.5) == pytest.approx(0.5204998778130465, abs=1e-14)
    assert psi(-0.5) == -psi(0.5)


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


def _exact_det(rows):
    """Determinant of a Fraction matrix by exact Gaussian elimination."""
    m = [list(r) for r in rows]
    out = Fraction(1)
    for c in range(len(m)):
        p = next(r for r in range(c, len(m)) if m[r][c] != 0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def _bialternant(z, num, den):
    """Exact det(num(z_i, j)) / det(den(z_i, j)) at the float values z, as a float."""
    z = [Fraction(v) for v in z]
    cols = range(len(z))
    return float(_exact_det([[num(v, j) for j in cols] for v in z])
                 / _exact_det([[den(v, j) for j in cols] for v in z]))


def _schur_exact(lam, z):
    n = len(z)
    return _bialternant(z, lambda v, j: v ** (lam[j] + n - 1 - j),
                        lambda v, j: v ** (n - 1 - j))


def _sp_exact(lam, z):
    n = len(z)
    return _bialternant(z, lambda v, j: v ** (lam[j] + n - j) - v ** -(lam[j] + n - j),
                        lambda v, j: v ** (n - j) - v ** -(n - j))


def test_schur_small_cases():
    # s_(1,0)(x,y) = x + y; s_(2,1)(x,y) = xy(x+y); s_(1,1)(x,y) = xy
    z = np.array([1.7, 0.4])
    assert schur((1, 0), z) == pytest.approx(z.sum(), rel=1e-12)
    assert schur((2, 1), z) == pytest.approx(z.prod() * z.sum(), rel=1e-12)
    assert schur((1, 1), z) == pytest.approx(z.prod(), rel=1e-12)
    # three variables: s_(1,1,1) = e_3, s_(2,0,0) = h_2
    z3 = np.array([0.5, 1.1, 2.0])
    assert schur((1, 1, 1), z3) == pytest.approx(z3.prod(), rel=1e-12)
    h2 = sum(z3[i] * z3[j] for i in range(3) for j in range(i, 3))
    assert schur((2, 0, 0), z3) == pytest.approx(h2, rel=1e-12)


def test_schur_confluent_matches_generic():
    lam = (3, 1, 0)
    z_gen = np.array([1.0, 1.3, 0.6])
    z_conf = np.array([1.0, 1.0 + 1e-9, 0.6])
    near = schur(lam, z_conf)
    limit = schur(lam, np.array([1.0 + 5e-4, 1.0, 0.6]))
    assert near == pytest.approx(limit, rel=5e-3)
    assert schur(lam, np.ones(3)) == pytest.approx(schur_principal(lam), rel=1e-12)
    z_near = (1.0, 1.0 + 1e-7, 0.6)
    assert schur(lam, np.array(z_near)) == pytest.approx(_schur_exact(lam, z_near), rel=1e-12)


def test_sp_character_small_cases():
    # N=1: sp_(k)(z) = (z^{k+1} - z^{-(k+1)}) / (z - 1/z)
    z = 1.7
    for k in (0, 1, 3):
        expect = (z ** (k + 1) - z ** -(k + 1)) / (z - 1 / z)
        assert sp_character((k,), np.array([z])) == pytest.approx(expect, rel=1e-12)
    # principal specialization = dimension of the sp(2N) irrep
    assert sp_principal((0, 0)) == pytest.approx(1.0)
    assert sp_principal((1, 0)) == pytest.approx(4.0)   # defining rep of sp(4)
    assert sp_principal((1, 1)) == pytest.approx(5.0)
    assert sp_principal((2, 0)) == pytest.approx(10.0)  # adjoint of sp(4)


def test_sp_character_continuity_at_one():
    lam = (2, 1)
    z = np.array([1.0 + 1e-8, 0.8])
    z2 = np.array([1.001, 0.8])
    assert sp_character(lam, z) == pytest.approx(sp_character(lam, z2), rel=1e-2)
    z_near = (1.0 + 1e-7, 0.8)
    assert sp_character(lam, np.array(z_near)) == pytest.approx(_sp_exact(lam, z_near), rel=1e-12)
    assert sp_character(lam, np.ones(2)) == pytest.approx(sp_principal(lam), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("weight", ["plain", "squared-diff-abs"])
def test_mehta_integrals_match_quadrature(n, weight):
    closed = mehta_integral(n, 0.5, 0.5, weight=weight)
    quad = mehta_integral_quadrature(n, 0.5, 0.5, weight=weight)
    assert quad == pytest.approx(closed, rel=1e-6)


def test_mehta_integral_rejects_bad_input():
    with pytest.raises(ValueError):
        mehta_integral(0, 0.5, 0.5)
    with pytest.raises(ValueError):
        mehta_integral(2, 0.5, 0.5, weight="nope")
