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
from .special_functions import _psi_hat_grad, constants, h_hat_poly, h_poly, psi, psi_hat

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


def _survival_matrix(t, xs, wall):
    """Skew matrices A with Pf(A) = non-collision probability, and D = dA_kj/dx_k.

    xs holds configurations along its last axis; A and D have shape
    (..., d, d) with d = N, or N + 1 when N is odd (A is then bordered by a
    last row and column).  D[..., k, j] is the derivative of A[..., k, j] in
    the coordinate x_k, for k < N.
    """
    n = xs.shape[-1]
    dim = n + n % 2
    a = np.zeros(xs.shape[:-1] + (dim, dim))
    d = np.zeros_like(a)
    i, j = _pairs(n)
    if wall:
        root = math.sqrt(2 * t)
        u = xs / root
        a[..., i, j] = psi_hat(u[..., i], u[..., j])
        g1, g2 = _psi_hat_grad(u[..., i], u[..., j])
        d[..., i, j] = g1 / root
        d[..., j, i] = -g2 / root
        if dim > n:
            a[..., :n, n] = psi(u)
            d[..., :n, n] = _psi_grad(u) / root
    else:
        root = 2 * math.sqrt(t)
        z = (xs[..., j] - xs[..., i]) / root
        a[..., i, j] = psi(z)
        d[..., i, j] = d[..., j, i] = -_psi_grad(z) / root
        if dim > n:
            a[..., :n, n] = 1.0
    return a - np.swapaxes(a, -1, -2), d


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
    return linalg.pfaffian(_survival_matrix(t, xs, wall)[0])


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

    Finite horizon: the gradient of log survival(T - t, .), exactly, from
    d_k log Pf(A) = sum_j (A^-1)_jk dA_kj/dx_k over the survival matrix A.
    One Parlett-Reid elimination M A M^T = B (linalg._skew_eliminate) gives
    A^-1 = M^T B^-1 M with B block-diagonal, so no inverse is formed.  A
    row whose survival matrix is singular (coincident walkers) raises
    ValueError.  Infinite horizon: the closed interacting form
    sum_{j != i} 1/(x_i - x_j), plus 1/x_i and 1/(x_i + x_j) terms behind
    the wall.
    """
    n, T, wall = spec.n_walkers, spec.horizon, spec.wall
    xs = np.asarray(xs, dtype=float)
    if wall and np.any(xs[..., 0] <= 0):
        raise ValueError("configuration lies on the wall (x_1 <= 0): the drift is undefined there")
    if math.isinf(T):
        diag = np.arange(n)
        diff = xs[..., :, None] - xs[..., None, :]
        diff[..., diag, diag] = np.inf
        b = np.sum(1.0 / diff, axis=-1)
        if wall:
            s = xs[..., :, None] + xs[..., None, :]
            s[..., diag, diag] = np.inf
            b = b + 1.0 / xs + np.sum(1.0 / s, axis=-1)
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
    d = np.moveaxis(d.reshape((-1,) + d.shape[-2:])[:, :n], 0, -1)
    out = np.sum(inv_t * d, axis=1).T
    return out.reshape(xs.shape)


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
    consts = constants(len(x))
    if wall:
        pred = h_hat_poly(x / math.sqrt(t)) / consts.c_tilde
    else:
        pred = h_poly(x / math.sqrt(t)) / consts.c_bar
    return exact, pred, exact / pred


def de_bruijn_check(n, kernel, x, order=120, span=7.0):
    """Residual of the chamber-integral-of-determinant = Pfaffian reduction.

    kernel "gaussian": z(a, b) = exp(-(a-b)^2)/sqrt(pi) on the full line;
    kernel "wall-gaussian": the reflected difference restricted to the
    nonnegative half-line.  n <= 3.
    """
    if n < 1 or n > 3:
        raise ValueError("quadrature check supports n <= 3")
    wall = kernel == "wall-gaussian"
    if kernel not in ("gaussian", "wall-gaussian"):
        raise ValueError("unknown kernel %r" % (kernel,))
    x = _check_chamber(x, wall)

    if wall:
        def z(a, b):
            return (np.exp(-((a - b) ** 2)) - np.exp(-((a + b) ** 2))) / math.sqrt(math.pi)
        lo, hi = 0.0, float(x.max() + span)
    else:
        def z(a, b):
            return np.exp(-((a - b) ** 2)) / math.sqrt(math.pi)
        lo, hi = float(x.min() - span), float(x.max() + span)

    def integrand(y):
        mats = z(x.reshape((1,) * (y.ndim - 1) + (n, 1)), y[..., None, :])
        return np.linalg.det(mats)

    integral = chamber_integral(integrand, n, lo, hi, order=order)
    # at t = 1/2 the survival scalings give u = x and (x_j - x_i)/sqrt(2)
    pf = survival(0.5, x, wall)
    return abs(integral - pf) / abs(pf)
