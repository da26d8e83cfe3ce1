"""Scalar kernels, chamber polynomials and constants for the walker model.

Holds the Gaussian mass function psi (the error function, computed here
with numpy alone), the two-rectangle wall kernel psi_hat, the
Vandermonde-type chamber polynomials, the model constants, and the closed
forms of the two Mehta-type Gaussian integrals behind them.
`verify` checks those closed forms against the chamber masses of
`densities.coordinate_cdf`'s origin bases, at the parameters the
constants use.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "psi",
    "psi_hat",
    "h_poly",
    "h_hat_poly",
    "ModelConstants",
    "constants",
    "mehta_integral",
]


def psi(u):
    """Normalized Gaussian mass (2/sqrt(pi)) * int_0^u exp(-v^2) dv, that is erf(u)."""
    return _erf(u)


# ---------------------------------------------------------------------------
# The error function, after fdlibm's s_erf.c: a rational approximation on
# each of four ranges of |x|, coefficients highest degree first as
# (numerator, denominator) pairs, the shorter one padded with leading zeros,
# which leave Horner's rounding unchanged.  Below 0.84375 erf(x) = x + x R(x^2);
# up to 1.25 erf(x) = erx + R(|x| - 1); up to 6 erfc(|x|) = exp(-x^2 - 0.5625
# + R(1/x^2)) / |x|, with one R below 1/0.35 and one above; from 6 on
# |erf(x)| rounds to 1.  The error is below one ulp.

_ERX = 8.45062911510467529297e-01
_ERF_EDGES = (0.84375, 1.25, 1 / 0.35, 6.0)
_ERF_CHUNK = 1 << 15      # entries per chunk; every temporary is at most twice this


def _coefficients(num, den):
    num = (0.0,) * (len(den) - len(num)) + num
    return tuple(np.array([[a], [b]]) for a, b in zip(num, den))


_ERF_SMALL = _coefficients(
    (-2.37630166566501626084e-05, -5.77027029648944159157e-03, -2.84817495755985104766e-02,
     -3.25042107247001499370e-01, 1.28379167095512558561e-01),
    (-3.96022827877536812320e-06, 1.32494738004321644526e-04, 5.08130628187576562776e-03,
     6.50222499887672944485e-02, 3.97917223959155352819e-01, 1.0))
_ERF_MID = _coefficients(
    (-2.16637559486879084300e-03, 3.54783043256182359371e-02, -1.10894694282396677476e-01,
     3.18346619901161753674e-01, -3.72207876035701323847e-01, 4.14856118683748331666e-01,
     -2.36211856075265944077e-03),
    (1.19844998467991074170e-02, 1.36370839120290507362e-02, 1.26171219808761642112e-01,
     7.18286544141962662868e-02, 5.40397917702171048937e-01, 1.06420880400844228286e-01, 1.0))
_ERFC_NEAR = _coefficients(
    (-9.81432934416914548592e+00, -8.12874355063065934246e+01, -1.84605092906711035994e+02,
     -1.62396669462573470355e+02, -6.23753324503260060396e+01, -1.05586262253232909814e+01,
     -6.93858572707181764372e-01, -9.86494403484714822705e-03),
    (-6.04244152148580987438e-02, 6.57024977031928170135e+00, 1.08635005541779435134e+02,
     4.29008140027567833386e+02, 6.45387271733267880336e+02, 4.34565877475229228821e+02,
     1.37657754143519042600e+02, 1.96512716674392571292e+01, 1.0))
_ERFC_FAR = _coefficients(
    (-4.83519191608651397019e+02, -1.02509513161107724954e+03, -6.37566443368389627722e+02,
     -1.60636384855821916062e+02, -1.77579549177547519889e+01, -7.99283237680523006574e-01,
     -9.86494292470009928597e-03),
    (-2.24409524465858183362e+01, 4.74528541206955367215e+02, 2.55305040643316442583e+03,
     3.19985821950859553908e+03, 1.53672958608443695994e+03, 3.25792512996573918826e+02,
     3.03380607434824582924e+01, 1.0))


def _rational(z, coef):
    """Numerator over denominator at z, both by Horner's rule in one (2, len(z)) array."""
    p = z * coef[0]
    for c in coef[1:-1]:
        p += c
        p *= z
    p += coef[-1]
    return np.divide(p[0], p[1], out=p[0])


def _erf_small(a):
    y = _rational(a * a, _ERF_SMALL)
    y *= a
    y += a
    return y


def _erf_mid(a):
    y = _rational(a - 1.0, _ERF_MID)
    y += _ERX
    return y


def _erf_tail(a, coef):
    """erf at a in [1.25, 6), with the coefficients of a's side of 1/0.35.

    erf(a) = 1 - exp(R(1/a^2) - a^2 - 0.5625) / a.  fdlibm splits a^2 for
    erfc's sake; erf needs erfc only to about one ulp of 1, which the
    rounding of a^2 (at most erfc(a) a^2 eps / 2 < 0.07 eps) leaves it.
    """
    square = a * a
    e = _rational(1.0 / square, coef)
    e -= square
    e -= 0.5625
    np.exp(e, out=e)
    e /= a
    return np.subtract(1.0, e, out=e)


_ERF_RANGES = (_erf_small, _erf_mid, lambda a: _erf_tail(a, _ERFC_NEAR),
               lambda a: _erf_tail(a, _ERFC_FAR))


def _erf_chunk(x):
    """erf of a 1-D array, into a new array.

    Each range's formula runs on the entries of its range, gathered by
    index, so an entry's value does not depend on the others in the chunk.
    From 6 on |erf| rounds to 1, and NaN stays NaN (it also falls in the
    first range).
    """
    a = np.abs(x)
    out = np.minimum(a, 1.0)
    above = [a >= edge for edge in _ERF_EDGES]
    inside = ~above[0]
    for r, formula in enumerate(_ERF_RANGES):
        if r:
            inside = above[r - 1] & ~above[r]
        where = np.flatnonzero(inside)
        if len(where):
            out[where] = formula(a[where])
    return np.copysign(out, x, out=out)


def _erf(x):
    """erf(x) elementwise for any array layout, chunk by chunk; a float for 0-d input."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat = out.reshape(-1)
    src = x.reshape(-1) if x.flags.c_contiguous else x.flat
    for start in range(0, flat.size, _ERF_CHUNK):
        flat[start:start + _ERF_CHUNK] = _erf_chunk(src[start:start + _ERF_CHUNK])
    return out[()]


# ---------------------------------------------------------------------------
# Gauss-Legendre machinery (vectorized over broadcastable endpoints)

_GL_CACHE = {}


def _gl_nodes(order):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def psi_hat(u1, u2):
    """Two-rectangle double integral kernel for the wall survival Pfaffian.

    (2/pi) [ int_0^{u1} dv1 int_{u1-u2}^{u2-u1} dv2 e^{-v1^2-(v1-v2)^2}
           - int_{u1}^{u2} dv1 int_{u2-u1}^{u1+u2} dv2 e^{-v1^2-(v1-v2)^2} ].

    The inner v2 integral is done in closed form with erf, each outer one by
    a single 24-node Gauss-Legendre panel.  The outer integrands are at most
    2 e^{-v1^2}, so both outer intervals are cut at v1 = 6.5: the part left
    off is below e^{-42} relative to the O(1) first term.

    The reflection of the chamber 0 < u1 < u2 that swaps its two walls
    gives psi_hat(u1, u2) = psi_hat((u2 - u1)/sqrt(2), (u2 + u1)/sqrt(2)).
    The first term's erf difference cancels when u2 - u1 is small against
    u1, the second's when it is large, so each term is taken at whichever
    of the two points keeps its own erf difference free of cancellation.

    Accepts broadcastable arrays with 0 <= u1 <= u2 elementwise.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if np.any(u1 < 0) or np.any(u2 < u1):
        raise ValueError("psi_hat requires 0 <= u1 <= u2")
    r2 = math.sqrt(2.0)
    d = u2 - u1
    m1, m2 = d / r2, (u2 + u1) / r2
    fold = d < r2 * u1                  # then the reflected point has the wider gap
    w1, w2 = np.where(fold, m1, u1), np.where(fold, m2, u2)
    n1, n2 = np.where(fold, u1, m1), np.where(fold, u2, m2)
    xi, wi = (g.reshape((-1,) + (1,) * w1.ndim) for g in _gl_nodes(24))

    def panel(inner, a, b):
        half = 0.5 * (b - a)
        v = a + half * (xi + 1.0)
        terms = wi * (np.exp(-v ** 2) * inner(v))
        # added node by node, so every entry sums in the same order wherever
        # it sits in the array (a BLAS contraction need not)
        total = terms[0]
        for term in terms[1:]:
            total += term
        return half * total

    # int_a^b e^{-(v1-v2)^2} dv2 = (sqrt(pi)/2) [erf(v1-a) - erf(v1-b)]
    dw, dn, sn = w2 - w1, n2 - n1, n1 + n2
    t1 = panel(lambda v: _erf(v + dw) - _erf(v - dw), 0.0, np.minimum(w1, 6.5))
    t2 = panel(lambda v: _erf(v - dn) - _erf(v - sn), n1, np.minimum(n2, np.maximum(n1, 6.5)))
    return (t1 - t2) / math.sqrt(math.pi)


def _psi_hat_grad(u1, u2):
    """Partial derivatives (d/du1, d/du2) of psi_hat, in closed form.

    Differentiating the integration limits leaves one-dimensional Gaussian
    integrals G(c; a, b) = int_a^b e^{-v^2-(v-c)^2} dv, which are erf
    differences.  Same domain as psi_hat; no check is repeated here.
    """
    r2 = math.sqrt(2.0)

    def gauss(c, a, b):
        return (math.sqrt(math.pi / 8) * np.exp(-c * c / 2)
                * (_erf(r2 * (b - c / 2)) - _erf(r2 * (a - c / 2))))

    d, s = u2 - u1, u1 + u2
    both = gauss(-d, 0.0, u1) + gauss(d, 0.0, u1) + gauss(d, u1, u2)
    outer = gauss(s, u1, u2)
    root_pi = math.sqrt(math.pi)
    g1 = 2 * np.exp(-u1 ** 2) * _erf(u2) - (2 / root_pi) * (both + outer)
    g2 = -2 * np.exp(-u2 ** 2) * _erf(u1) + (2 / root_pi) * (both - outer)
    return g1 / root_pi, g2 / root_pi


def h_poly(x):
    """Product of coordinate differences prod_{i<j} (x_j - x_i)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    out = np.ones(x.shape[:-1])
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (x[..., j] - x[..., i])
    return out if out.ndim else float(out)


def h_hat_poly(x):
    """Wall chamber polynomial prod_{i<j} (x_j^2 - x_i^2) * prod_i x_i."""
    x = np.asarray(x, dtype=float)
    out = np.prod(x, axis=-1) * h_poly(x ** 2)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# Model constants


@dataclass(frozen=True)
class ModelConstants:
    n_walkers: int
    c: float            # finite-horizon family, origin start
    c_prime: float      # infinite-horizon family, origin start
    c_bar: float        # ratio c / c_prime
    c_hat: float        # wall finite-horizon family
    c_hat_prime: float  # wall infinite-horizon family
    c_tilde: float      # ratio c_hat / c_hat_prime


def constants(n):
    """All six model normalization constants for n walkers.

    Each origin-law normalization is a Mehta integral M (mehta_integral):
    c = n!/M_plain(n, 1/2, 1/2), c' = n!/M_plain(n, 1, 1/2),
    c_hat = 2^n n!/M_sq(n, 1/2, 1) and c_hat' = 2^n n!/M_sq(n, 1, 3/2).
    """
    if n < 1:
        raise ValueError("need at least one walker")
    nf = math.factorial(n)
    c = nf / mehta_integral(n, 0.5, 0.5)
    c_prime = nf / mehta_integral(n, 1.0, 0.5)
    c_hat = 2 ** n * nf / mehta_integral(n, 0.5, 1.0, "squared-diff-abs")
    c_hat_prime = 2 ** n * nf / mehta_integral(n, 1.0, 1.5, "squared-diff-abs")
    return ModelConstants(n_walkers=n, c=c, c_prime=c_prime, c_bar=c / c_prime, c_hat=c_hat,
                          c_hat_prime=c_hat_prime, c_tilde=c_hat / c_hat_prime)


def _small_gap_survival(u, wall):
    """Small-configuration survival prediction at u = x / sqrt(t).

    h(u)/c_bar for free walkers, h_hat(u)/c_tilde behind the wall.
    """
    consts = constants(np.shape(u)[-1])
    if wall:
        return h_hat_poly(u) / consts.c_tilde
    return h_poly(u) / consts.c_bar


# ---------------------------------------------------------------------------
# Mehta-type Gaussian integrals


def mehta_integral(n, gamma, a, weight="plain"):
    """Closed form of the two Gaussian ensemble integrals.

    weight="plain":
        int_{R^n} e^{-a|u|^2} prod_{i<j} |u_j-u_i|^{2 gamma} du
        = (2 pi)^{n/2} (2a)^{-n(gamma(n-1)+1)/2} prod_i Gamma(1+i gamma)/Gamma(1+gamma)

    weight="squared-diff-abs":
        int_{R^n} e^{-|u|^2/2} prod_{i<j} |u_j^2-u_i^2|^{2 gamma} prod_j |u_j|^{2a-1} du
        = 2^{an + gamma n(n-1)} prod_j Gamma(1+j gamma) Gamma(a+gamma(j-1)) / Gamma(1+gamma)
    """
    if n < 1 or gamma <= 0 or a <= 0:
        raise ValueError("parameters out of range")
    if weight == "plain":
        lg = 0.5 * n * math.log(2 * math.pi)
        lg -= 0.5 * n * (gamma * (n - 1) + 1) * math.log(2 * a)
        lg += sum(math.lgamma(1 + i * gamma) - math.lgamma(1 + gamma) for i in range(1, n + 1))
        return math.exp(lg)
    if weight == "squared-diff-abs":
        lg = (a * n + gamma * n * (n - 1)) * math.log(2)
        lg += sum(
            math.lgamma(1 + j * gamma) + math.lgamma(a + gamma * (j - 1)) - math.lgamma(1 + gamma)
            for j in range(1, n + 1)
        )
        return math.exp(lg)
    raise ValueError("unknown weight %r" % (weight,))
