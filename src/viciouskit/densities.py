"""Continuum densities of the nonintersecting diffusions.

Karlin-McGregor determinant kernels, Pfaffian non-collision probabilities,
the finite-horizon and infinite-horizon transition densities (free and
wall-restricted), their drifts, the generalized Imhof product identity,
small-configuration survival asymptotics, and the de Bruijn
integral-to-Pfaffian reduction check.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .quadrature import chamber_integral
from .special_functions import (_psi_hat_grad, _small_gap_survival, constants, h_hat_poly,
                                h_poly, psi, psi_hat)

__all__ = [
    "ModelSpec",
    "km_density",
    "survival",
    "survival_batch",
    "g_density",
    "p_density",
    "drift",
    "drift_batch",
    "imhof_check",
    "survival_asymptotics",
    "de_bruijn_check",
]


@dataclass(frozen=True)
class ModelSpec:
    """Walker count, nonintersection horizon (math.inf for the h-transform family), wall flag."""

    n_walkers: int
    horizon: float = math.inf
    wall: bool = False

    def __post_init__(self):
        if self.n_walkers < 1:
            raise ValueError("need at least one walker")
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive (math.inf selects the p-family)")


def _check_chamber(x, wall, name="x"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("%s must be a single configuration" % name)
    if np.any(np.diff(x) <= 0):
        raise ValueError("%s must be strictly increasing" % name)
    if wall and x[0] < 0:
        raise ValueError("%s must be nonnegative behind the wall" % name)
    return x


def km_density(t, x, y, wall=False):
    """Absorbing transition density: determinant over heat kernels.

    y may carry leading batch dimensions; the last axis is the particle
    index.  With the wall, each kernel entry is the difference of the
    direct and reflected Gaussians.
    """
    if t <= 0:
        raise ValueError("elapsed time must be positive")
    x = _check_chamber(x, wall)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if y.shape[-1] != n:
        raise ValueError("dimension mismatch between x and y")
    xb = x.reshape((1,) * (y.ndim - 1) + (1, n))
    yb = y[..., :, None]
    norm = 1.0 / math.sqrt(2 * math.pi * t)
    ker = norm * np.exp(-((xb - yb) ** 2) / (2 * t))
    if wall:
        ker = ker - norm * np.exp(-((xb + yb) ** 2) / (2 * t))
    out = np.linalg.det(ker)
    return float(out) if out.ndim == 0 else out


def _psi_grad(u):
    return (2.0 / math.sqrt(math.pi)) * np.exp(-u ** 2)


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """Index arrays (i, j) of the pairs i < j of n walkers, built once per n."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@functools.lru_cache(maxsize=None)
def _partner_pairs(n):
    """Each walker's pairs and its sign in them, read-only (n, n - 1) arrays.

    Row k holds the _pairs(n) index of the pair of walker k with each other
    walker, in ascending order of that walker, and the sign is +1 where k is
    the lower walker of the pair.
    """
    i, j = _pairs(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    walker, partner = np.nonzero(~np.eye(n, dtype=bool))
    index = pair[walker, partner].reshape((n, n - 1))
    sign = np.where(walker < partner, 1.0, -1.0).reshape((n, n - 1))
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def _survival_matrix(t, xs, wall):
    """Skew matrices A with Pf(A) = non-collision probability, and D = dA_kj/dx_k.

    xs holds configurations along its last axis and is flattened to b rows.
    A and D are batch-last, shape (d, d, b), with d = N, or N + 1 when N is
    odd (A is then bordered by a last row and column): A[:, :, r] is the
    matrix of row r.  D[k, j] is the derivative of A[k, j] in the
    coordinate x_k, for k < N.  Both are fresh arrays, so A can go straight
    to linalg._skew_eliminate, which overwrites it.
    """
    n = xs.shape[-1]
    dim = n + n % 2
    x = xs.reshape((-1, n)).T
    a = np.zeros((dim, dim, x.shape[1]))
    d = np.zeros(a.shape)
    i, j = _pairs(n)
    if wall:
        root = math.sqrt(2 * t)
        u = x / root
        a[i, j] = psi_hat(u[i], u[j])
        g1, g2 = _psi_hat_grad(u[i], u[j])
        d[i, j] = g1 / root
        d[j, i] = -g2 / root
        if dim > n:
            a[:n, n] = psi(u)
            d[:n, n] = _psi_grad(u) / root
    else:
        root = 2 * math.sqrt(t)
        z = (x[j] - x[i]) / root
        a[i, j] = psi(z)
        d[i, j] = d[j, i] = -_psi_grad(z) / root
        if dim > n:
            a[:n, n] = 1.0
    return a - np.swapaxes(a, 0, 1), d


def survival(t, x, wall=False):
    """Probability that the Brownian configuration keeps strict order up to time t.

    Pfaffian of the pair-kernel matrix; t = 0 returns 1 for interior starts.
    """
    return float(survival_batch(t, _check_chamber(x, wall), wall))


def survival_batch(t, xs, wall=False):
    """Non-collision probability of each configuration along the last axis of xs.

    One batched Pfaffian of the pair-kernel matrices, for every N.
    """
    xs = np.asarray(xs, dtype=float)
    if t < 0:
        raise ValueError("remaining time must be nonnegative")
    if t == 0:
        return np.ones(xs.shape[:-1])
    a = _survival_matrix(t, xs, wall)[0]
    return linalg.pfaffian(np.moveaxis(a, -1, 0)).reshape(xs.shape[:-1])


def g_density(spec, s, x, t, y):
    """Transition density of the finite-horizon nonintersecting diffusion.

    x=None marks the degenerate origin start (requires s=0), handled by the
    closed form; otherwise the ratio form
    f(t-s, y|x) * survival(T-t, y) / survival(T-s, x) is used.
    y may carry batch dimensions.
    """
    n, T, wall = spec.n_walkers, spec.horizon, spec.wall
    if not (0 <= s < t <= T):
        raise ValueError("need 0 <= s < t <= horizon")
    y = np.asarray(y, dtype=float)
    surv_y = survival_batch(T - t, y, wall)
    if x is None:
        if s != 0:
            raise ValueError("the origin start requires s = 0")
        consts = constants(n)
        gauss = np.exp(-np.sum(y ** 2, axis=-1) / (2 * t))
        if wall:
            pref = consts.c_hat * T ** (n * n / 2.0) * t ** (-n * (2 * n + 1) / 2.0)
            val = pref * gauss * h_hat_poly(y) * surv_y
        else:
            pref = consts.c * T ** (n * (n - 1) / 4.0) * t ** (-n * n / 2.0)
            val = pref * gauss * h_poly(y) * surv_y
        return float(val) if np.ndim(val) == 0 else val
    x = _check_chamber(x, wall)
    surv_x = survival(T - s, x, wall)
    val = km_density(t - s, x, y, wall) * surv_y / surv_x
    return float(val) if np.ndim(val) == 0 else val


def p_density(spec, s, x, t, y):
    """Transition density of the infinite-horizon (h-transform) diffusion."""
    n, wall = spec.n_walkers, spec.wall
    if not (0 <= s < t):
        raise ValueError("need 0 <= s < t")
    y = np.asarray(y, dtype=float)
    hfun = h_hat_poly if wall else h_poly
    if x is None:
        if s != 0:
            raise ValueError("the origin start requires s = 0")
        consts = constants(n)
        gauss = np.exp(-np.sum(y ** 2, axis=-1) / (2 * t))
        if wall:
            val = consts.c_hat_prime * t ** (-n * (2 * n + 1) / 2.0) * gauss * hfun(y) ** 2
        else:
            val = consts.c_prime * t ** (-n * n / 2.0) * gauss * hfun(y) ** 2
        return float(val) if np.ndim(val) == 0 else val
    x = _check_chamber(x, wall)
    val = km_density(t - s, x, y, wall) * hfun(y) / hfun(x)
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# Drifts


def drift(spec, t, x):
    """Drift vector of the conditioned diffusion at time t, at one configuration."""
    return drift_batch(spec, t, _check_chamber(x, spec.wall)[None, :])[0]


def drift_batch(spec, t, xs):
    """Drift evaluated across a batch of configurations (rows strictly ordered).

    xs holds configurations along its last axis; the drift has the shape
    of xs.  Finite horizon: the gradient of log survival(T - t, .),
    exactly, from d_k log Pf(A) = sum_j (A^-1)_jk dA_kj/dx_k over the
    survival matrix A.  A and D = dA/dx come batch-last, (d, d, b), from
    _survival_matrix, and one Parlett-Reid elimination of A in place,
    M A M^T = B (linalg._skew_eliminate), gives A^-1 = M^T B^-1 M with B
    block-diagonal, so no inverse is formed.  A row whose survival matrix
    is singular (coincident walkers) raises ValueError.

    Infinite horizon: the closed interacting form sum_{j != i} 1/(x_i - x_j),
    plus 1/x_i + sum_{j != i} 1/(x_i + x_j) behind the wall.  The
    N(N-1)/2 reciprocal gaps 1/(x_i - x_j), i < j (and the reciprocal sums
    behind the wall) are taken once; each walker gathers its N - 1 of them in
    partner order, signed by its place in the pair (_partner_pairs), and sums
    them.  These are the written-out sums' terms in their order, so a row's
    drift does not depend on the rows batched with it.
    """
    n, T, wall = spec.n_walkers, spec.horizon, spec.wall
    xs = np.asarray(xs, dtype=float)
    if wall and np.any(xs[..., 0] <= 0):
        raise ValueError("configuration lies on the wall (x_1 <= 0): the drift is undefined there")
    if math.isinf(T):
        i, j = _pairs(n)
        index, sign = _partner_pairs(n)
        xi, xj = xs[..., i], xs[..., j]
        b = ((1.0 / (xi - xj))[..., index] * sign).sum(axis=-1)
        if wall:
            b = b + 1.0 / xs + (1.0 / (xi + xj))[..., index].sum(axis=-1)
        return b
    if not (t < T):
        raise ValueError("the finite-horizon drift is singular at t = horizon")
    a, d = _survival_matrix(T - t, xs, wall)
    _, pivots, m = linalg._skew_eliminate(a)
    singular = np.any(pivots == 0.0, axis=0)
    if singular.any():
        row = np.unravel_index(np.argmax(singular), xs.shape[:-1])
        raise ValueError("survival matrix of row %s (x = %s) is singular: the drift is "
                         "undefined there" % (row[0] if len(row) == 1 else row, xs[row]))
    # A^-1 = M^T B^-1 M, where B's 2x2 block [[0, p], [-p, 0]] inverts to
    # [[0, -1/p], [1/p, 0]]: (A^-1)_jk = sum_h (r_hj q_hk - q_hj r_hk) with
    # q_h = M[2h] / p_h and r_h = M[2h+1]; inv_t[k, j] holds (A^-1)_jk
    q = m[0::2] / pivots[:, None]
    r = m[1::2]
    inv_t = np.sum(q[:, :n, None] * r[:, None] - r[:, :n, None] * q[:, None], axis=0)
    return np.sum(inv_t * d[:n], axis=1).T.reshape(xs.shape)


# ---------------------------------------------------------------------------
# Identities and asymptotics


def imhof_check(spec, times, points):
    """Relative residual of the generalized meander/Bessel product identity.

    times must be strictly increasing, start after 0, and end at the
    horizon; points are the configurations visited at those times.  The
    first factor always starts from the origin.
    """
    n, T, wall = spec.n_walkers, spec.horizon, spec.wall
    times = [float(t) for t in times]
    if math.isinf(T):
        raise ValueError("the identity compares against a finite horizon")
    if len(times) != len(points) or not times:
        raise ValueError("need one configuration per time")
    if any(b <= a for a, b in zip(times, times[1:])) or times[0] <= 0 or times[-1] != T:
        raise ValueError("times must be strictly increasing and end at the horizon")
    pts = [np.asarray(p, dtype=float) for p in points]
    consts = constants(n)

    log_lhs = math.log(g_density(spec, 0.0, None, times[0], pts[0]))
    log_rhs = math.log(p_density(spec, 0.0, None, times[0], pts[0]))
    for i in range(1, len(times)):
        log_lhs += math.log(g_density(spec, times[i - 1], pts[i - 1], times[i], pts[i]))
        log_rhs += math.log(p_density(spec, times[i - 1], pts[i - 1], times[i], pts[i]))
    if wall:
        log_rhs += math.log(consts.c_tilde) + (n * n / 2.0) * math.log(T)
        log_rhs -= math.log(h_hat_poly(pts[-1]))
    else:
        log_rhs += math.log(consts.c_bar) + (n * (n - 1) / 4.0) * math.log(T)
        log_rhs -= math.log(h_poly(pts[-1]))
    return abs(math.expm1(log_lhs - log_rhs))


def survival_asymptotics(t, x, wall=False):
    """Exact Pfaffian survival against its small-configuration prediction.

    Returns (exact, predicted, ratio); the ratio tends to 1 as |x|/sqrt(t)
    shrinks.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    x = _check_chamber(x, wall)
    exact = survival(t, x, wall)
    pred = _small_gap_survival(x / math.sqrt(t), wall)
    return exact, pred, exact / pred


def de_bruijn_check(n, kernel, x, order=80):
    """Residual of the chamber-integral-of-determinant = Pfaffian reduction.

    The determinant is km_density at t = 1/2, whose kernel is
    exp(-(a-b)^2)/sqrt(pi): kernel "gaussian" integrates it over the full
    line, "wall-gaussian" its reflected difference over the nonnegative
    half-line.  n <= 3.  The integral runs to 7 past the outermost point.
    At the default order the residual at x = (0.3, 1.1, 2.2)[:n] is 5e-16
    (n = 3, "gaussian"), 5e-15 (n = 3, "wall-gaussian") and at most
    1.4e-15 (n = 2, both kernels).
    """
    if n < 1 or n > 3:
        raise ValueError("quadrature check supports n <= 3")
    wall = kernel == "wall-gaussian"
    if kernel not in ("gaussian", "wall-gaussian"):
        raise ValueError("unknown kernel %r" % (kernel,))
    x = _check_chamber(x, wall)

    lo = 0.0 if wall else float(x.min() - 7.0)
    integral = chamber_integral(functools.partial(km_density, 0.5, x, wall=wall), n, lo,
                                float(x.max() + 7.0), order=order)
    # at t = 1/2 the survival scalings give u = x and (x_j - x_i)/sqrt(2)
    pf = survival(0.5, x, wall)
    return abs(integral - pf) / abs(pf)
