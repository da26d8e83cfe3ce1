"""Scalar and symmetric-function kernels for the walker model.

Holds the Gaussian mass function psi, the two-rectangle wall kernel
psi_hat, the Vandermonde-type chamber polynomials, Schur and symplectic
characters, the model constants, and the two Mehta-type Gaussian
integrals.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

__all__ = [
    "psi",
    "psi_hat",
    "h_poly",
    "h_hat_poly",
    "schur",
    "sp_character",
    "schur_principal",
    "sp_principal",
    "ModelConstants",
    "constants",
    "mehta_integral",
    "mehta_integral_quadrature",
]


def psi(u):
    """Normalized Gaussian mass (2/sqrt(pi)) * int_0^u exp(-v^2) dv."""
    return erf(u)


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
    xi, wi = _gl_nodes(24)
    xi = xi.reshape((-1,) + (1,) * w1.ndim)

    def panel(inner, a, b):
        half = 0.5 * (b - a)
        v = a + half * (xi + 1.0)
        return half * np.tensordot(wi, np.exp(-v ** 2) * inner(v), axes=(0, 0))

    # int_a^b e^{-(v1-v2)^2} dv2 = (sqrt(pi)/2) [erf(v1-a) - erf(v1-b)]
    dw, dn, sn = w2 - w1, n2 - n1, n1 + n2
    t1 = panel(lambda v: erf(v + dw) - erf(v - dw), 0.0, np.minimum(w1, 6.5))
    t2 = panel(lambda v: erf(v - dn) - erf(v - sn), n1, np.minimum(n2, np.maximum(n1, 6.5)))
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
                * (erf(r2 * (b - c / 2)) - erf(r2 * (a - c / 2))))

    d, s = u2 - u1, u1 + u2
    both = gauss(-d, 0.0, u1) + gauss(d, 0.0, u1) + gauss(d, u1, u2)
    outer = gauss(s, u1, u2)
    root_pi = math.sqrt(math.pi)
    g1 = 2 * np.exp(-u1 ** 2) * erf(u2) - (2 / root_pi) * (both + outer)
    g2 = -2 * np.exp(-u2 ** 2) * erf(u1) + (2 / root_pi) * (both - outer)
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
    n = x.shape[-1]
    out = np.prod(x, axis=-1)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (x[..., j] ** 2 - x[..., i] ** 2)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Schur / symplectic characters (Jacobi-Trudi determinants)


def _complete_homogeneous(z, kmax):
    """h_0, ..., h_kmax of the variables z.

    Adds one variable at a time,
    h_k(z_1..z_r) = h_k(z_1..z_{r-1}) + z_r h_{k-1}(z_1..z_r),
    so for positive z every step sums positive terms (no division).
    """
    h = np.zeros(kmax + 1)
    h[0] = 1.0
    for v in z:
        for k in range(1, kmax + 1):
            h[k] += v * h[k - 1]
    return h


def _h_matrix(h, k):
    """Entries h_k of an integer index array k, with h_k = 0 for k < 0."""
    return np.where(k >= 0, h[np.clip(k, 0, None)], 0.0)


def _check_partition(lam, n):
    lam = list(lam)
    if len(lam) != n:
        raise ValueError("partition length must match number of variables")
    if any(a < b for a, b in zip(lam, lam[1:])) or lam[-1] < 0:
        raise ValueError("partition parts must be nonincreasing and nonnegative")
    return lam


def schur_principal(lam):
    """Schur polynomial at z = (1, ..., 1): prod_{i<j} (l_i - l_j + j - i)/(j - i)."""
    n = len(lam)
    lam = _check_partition(lam, n)
    out = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            out *= (lam[i] - lam[j] + j - i) / (j - i)
    return out


def schur(lam, z):
    """Schur polynomial by Jacobi-Trudi: det(h_{l_i - i + j}(z))."""
    z = np.asarray(z, dtype=float)
    n = len(z)
    lam = _check_partition(lam, n)
    if np.any(z <= 0):
        raise ValueError("schur requires positive variables")
    h = _complete_homogeneous(z, lam[0] + n - 1)
    i, j = np.indices((n, n))
    return float(np.linalg.det(_h_matrix(h, np.asarray(lam)[:, None] - i + j)))


def sp_principal(lam):
    """Symplectic character at z = (1, ..., 1)."""
    n = len(lam)
    lam = _check_partition(lam, n)
    ell = [lam[j - 1] + n - j + 1 for j in range(1, n + 1)]
    m = [n - j + 1 for j in range(1, n + 1)]
    out = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            out *= (ell[j] ** 2 - ell[i] ** 2) / (m[j] ** 2 - m[i] ** 2)
    for j in range(n):
        out *= ell[j] / m[j]
    return out


def sp_character(lam, z):
    """Symplectic character by Koike-Terada: (1/2) det(h_{l_i-i+j} + h_{l_i-i-j+2}).

    Indices are 1-based and h_k is taken over the 2N variables (z, 1/z).
    """
    z = np.asarray(z, dtype=float)
    n = len(z)
    lam = _check_partition(lam, n)
    if np.any(z <= 0):
        raise ValueError("sp_character requires positive variables")
    h = _complete_homogeneous(np.concatenate([z, 1.0 / z]), lam[0] + n - 1)
    i, j = np.indices((n, n))
    row = np.asarray(lam)[:, None] - i
    return 0.5 * float(np.linalg.det(_h_matrix(h, row + j) + _h_matrix(h, row - j)))


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
    """All six model normalization constants for n walkers."""
    if n < 1:
        raise ValueError("need at least one walker")
    lg_half = sum(math.lgamma(j / 2.0) for j in range(1, n + 1))
    lg_int = sum(math.lgamma(j) for j in range(1, n + 1))
    lg_2int = sum(math.lgamma(2 * j) for j in range(1, n + 1))
    c = math.exp(-0.5 * n * math.log(2) - lg_half)
    c_prime = math.exp(-0.5 * n * math.log(2 * math.pi) - lg_int)
    c_hat = math.exp(-lg_int)
    c_hat_prime = math.exp(0.5 * n * math.log(2 / math.pi) - lg_2int)
    return ModelConstants(
        n_walkers=n,
        c=c,
        c_prime=c_prime,
        c_bar=c / c_prime,
        c_hat=c_hat,
        c_hat_prime=c_hat_prime,
        c_tilde=c_hat / c_hat_prime,
    )


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


def mehta_integral_quadrature(n, gamma, a, weight="plain", order=80, span=9.0):
    """Numeric left-hand side of mehta_integral, n <= 3.

    Integrates over the ordered sector (times n!) where the integrand is
    smooth, with tensor Gauss-Legendre.
    """
    if n > 3:
        raise ValueError("quadrature only supported for n <= 3")
    from .quadrature import chamber_integral

    if weight == "plain":
        sig = math.sqrt(1.0 / (2 * a))

        def f(u):
            diffs = np.ones(u.shape[:-1])
            for i in range(n):
                for j in range(i + 1, n):
                    diffs = diffs * np.abs(u[..., j] - u[..., i]) ** (2 * gamma)
            return np.exp(-a * np.sum(u ** 2, axis=-1)) * diffs

        lo, hi = -span * sig, span * sig
    elif weight == "squared-diff-abs":
        def f(u):
            val = np.exp(-0.5 * np.sum(u ** 2, axis=-1))
            for i in range(n):
                for j in range(i + 1, n):
                    val = val * np.abs(u[..., j] ** 2 - u[..., i] ** 2) ** (2 * gamma)
            val = val * np.prod(np.abs(u) ** (2 * a - 1), axis=-1)
            return val

        # integrand is symmetric under u -> -u coordinatewise; restrict to the
        # positive ordered sector and multiply by 2^n n!
        val = chamber_integral(f, n, 0.0, span, order=order)
        return val * math.factorial(n) * 2 ** n
    else:
        raise ValueError("unknown weight %r" % (weight,))

    val = chamber_integral(f, n, lo, hi, order=order)
    return val * math.factorial(n)
