"""Continuum densities of the nonintersecting diffusions.

Karlin-McGregor determinant kernels, Pfaffian non-collision probabilities,
the finite-horizon and infinite-horizon transition densities (free and
wall-restricted), the exact coordinate laws of their origin starts at any
N (coordinate_cdf), their drifts, the generalized Imhof product identity,
small-configuration survival asymptotics, and, from coordinate_cdf's tables,
the checks of de Bruijn's integral-to-Pfaffian reduction at any N.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .quadrature import SLAB_POINTS
from .special_functions import (_gl_nodes, _psi_hat_grad, _small_gap_survival, constants,
                                h_hat_poly, h_poly, psi, psi_hat)

__all__ = [
    "ModelSpec",
    "km_density",
    "survival",
    "survival_batch",
    "g_density",
    "p_density",
    "coordinate_cdf",
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
    if not np.all(np.isfinite(x)):
        raise ValueError("%s must be finite, got %s" % (name, x))
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
def _partners(n):
    """Each walker's partners in ascending order, a read-only (n, n - 1) index array."""
    others = np.nonzero(~np.eye(n, dtype=bool))[1].reshape((n, n - 1))
    others.flags.writeable = False
    return others


def _survival_matrix(t, xs, wall, grad=True):
    """Skew matrices A with Pf(A) = non-collision probability, and D = dA_kj/dx_k.

    xs holds configurations along its last axis and is flattened to b rows.
    A and D are batch-last, shape (d, d, b), with d = N, or N + 1 when N is
    odd (A is then bordered by a last row and column): A[:, :, r] is the
    matrix of row r.  D[k, j] is the derivative of A[k, j] in the
    coordinate x_k, for k < N; with grad=False D is not built and is None.
    Both are fresh arrays, so A can go straight to linalg._skew_eliminate,
    which overwrites it.
    """
    n = xs.shape[-1]
    dim = n + n % 2
    x = xs.reshape((-1, n)).T
    a = np.zeros((dim, dim, x.shape[1]))
    d = np.zeros(a.shape) if grad else None
    i, j = _pairs(n)
    if wall:
        root = math.sqrt(2 * t)
        u = x / root
        a[i, j] = psi_hat(u[i], u[j])
        if dim > n:
            a[:n, n] = psi(u)
        if grad:
            g1, g2 = _psi_hat_grad(u[i], u[j])
            d[i, j] = g1 / root
            d[j, i] = -g2 / root
            if dim > n:
                d[:n, n] = _psi_grad(u) / root
    else:
        root = 2 * math.sqrt(t)
        z = (x[j] - x[i]) / root
        a[i, j] = psi(z)
        if grad:
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

    One batched Pfaffian of the pair-kernel matrices, for every N, clipped
    to [0, 1]: near-coincident walkers cancel the Pfaffian to rounding
    noise, which can fall below 0.
    """
    xs = np.asarray(xs, dtype=float)
    if t < 0:
        raise ValueError("remaining time must be nonnegative")
    if t == 0:
        return np.ones(xs.shape[:-1])
    a = _survival_matrix(t, xs, wall, grad=False)[0]
    pf = linalg.pfaffian(np.moveaxis(a, -1, 0)).reshape(xs.shape[:-1])
    return np.clip(pf, 0.0, 1.0)


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
# Coordinate laws of the origin-start ensembles

COORDINATE_ORDER = 16     # Gauss-Legendre nodes per panel of coordinate_cdf's integrals
COORDINATE_PANEL = 0.5    # widest panel, in units of sqrt(t)
KERNEL_PANEL = 2.0        # widest panel before the horizon, in units of sqrt((T - t) / t)
COORDINATE_NODES = 1 << 13    # most grid nodes; a finer grid is refused
COORDINATE_ERROR = 1e-8   # largest float error of the law at the grid's ends, where it is 0, 1


def _hermite_basis(n, wall, beta, x):
    """The basis P_i, i < n, of coordinate_cdf at x, shape x.shape + (n,).

    P_i are the Hermite polynomials h_k(x sqrt(2/beta)) orthonormal under
    e^{-x^2/beta}, k = i on the line and k = 2i + 1 behind the wall (odd
    functions restricted to the half-line).  For beta = 1 that weight is the
    square of the law's, which keeps the de Bruijn matrix well conditioned
    at every N.
    """
    x = np.asarray(x, dtype=float)
    d = 2 * n if wall else n
    z = x * math.sqrt(2 / beta)
    h = np.empty(x.shape + (d,))
    prev, cur = np.zeros(x.shape), np.ones(x.shape)
    for k in range(d):
        if k:
            prev, cur = cur, (z * cur - math.sqrt(k - 1) * prev) / math.sqrt(k)
        h[..., k] = cur
    return h[..., 1::2] if wall else h


def _antiderivative_weights(z):
    """int_{-1}^z l_k, shape z.shape + (m,), for the Lagrange basis l_k on m Gauss-Legendre nodes.

    With m = COORDINATE_ORDER, l_k = w_k sum_{j<m} (j + 1/2) P_j(x_k) P_j, and
    int_{-1}^z P_j is z + 1 at j = 0 and (P_{j+1} - P_{j-1})(z)/(2j + 1) after.
    """
    m = COORDINATE_ORDER
    nodes, weights = _gl_nodes(m)
    pz = np.polynomial.legendre.legvander(z, m)
    scaled = np.concatenate([(z[..., None] + 1) / 2, (pz[..., 2:] - pz[..., :-2]) / 2], axis=-1)
    return scaled @ np.polynomial.legendre.legvander(nodes, m - 1).T * weights


def _kernel(u, y, root, wall):
    """Survival-matrix entries eps(u_i, y_j), shape (r, Q), at tau = T - t in units of sqrt(t).

    root = sqrt(tau / t).  Free eps = psi((y - u) / 2 root); behind the wall
    sgn(y - u) psi_hat at the ordered pair a = (u, y) / (sqrt(2) root), which
    is psi(a_u) psi(a_y) once the pair is 9 apart (a collision then has
    probability erfc(9 / sqrt(2)) < 1e-17).
    """
    if not wall:
        return psi((y - u[:, None]) / (2 * root))
    a, b = np.broadcast_arrays(u[:, None] / (math.sqrt(2) * root), y / (math.sqrt(2) * root))
    sign, near = np.sign(b - a), np.abs(b - a) < 9.0
    out = sign * psi(a) * psi(b)
    out[near] = sign[near] * psi_hat(np.minimum(a, b)[near], np.maximum(a, b)[near])
    return out


def _kernel_integrals(phi, q, w, partial, root, wall):
    """G< = int_{y<u} eps(u, y) phi(y) dy and G> = int_{y>u} eps(u, y) phi(y) dy at each node u.

    eps is smooth across y = u, so both run over the grid's own nodes: the
    whole panels below u's, then u's panel up to u with the antiderivative
    weights at u's node.  At root = 0 (t = T) eps = sgn(y - u), so G< = -Phi
    and G> = Phi(inf) - Phi for Phi(u) = int^u phi: a running sum of the
    panel integrals plus u's own panel.  Before T rows go in slabs of at
    most SLAB_POINTS entries.
    """
    m = COORDINATE_ORDER
    if not root:
        panels = phi.reshape((-1, m) + phi.shape[1:])
        whole = np.cumsum(np.tensordot(w[:m], panels, axes=(0, 1)), axis=0)
        prim = (partial @ panels).reshape(phi.shape)
        prim[m:] += np.repeat(whole[:-1], m, axis=0)
        return -prim, whole[-1] - prim
    panel = np.arange(len(q)) // m
    below, above = np.empty(phi.shape), np.empty(phi.shape)
    rows = max(SLAB_POINTS // len(q), 1)
    for r in range(0, len(q), rows):
        at = np.arange(r, min(r + rows, len(q)))
        pre = np.where(panel < panel[at, None], w, 0.0)
        pre.reshape(len(at), -1, m)[np.arange(len(at)), panel[at]] = partial[at % m]
        eps = _kernel(q[at], q, root, wall)
        below[at] = (pre * eps) @ phi
        above[at] = ((w - pre) * eps) @ phi
    return below, above


def _chamber_mass(total, n, beta):
    """Chamber integral of det[phi_i(x_j)] Pf[eps(x_i, x_j)] (beta = 1) or det[phi_i(x_j)]^2.

    De Bruijn's Pfaffian of total = L(inf), bordered by B(inf) for odd N,
    or Andreief's determinant of the Gram matrix total.
    """
    if beta == 2:
        return np.linalg.det(total)
    return linalg.pfaffian(_de_bruijn_matrix(total[..., :n], total[..., 2 * n]))


def _de_bruijn_matrix(low, border):
    """Skew matrices low, (..., n, n), bordered for odd n by the column border and row -border."""
    n = low.shape[-1]
    if n % 2 == 0:
        return low
    out = np.zeros(low.shape[:-2] + (n + 1, n + 1))
    out[..., :n, :n] = low
    out[..., :n, n] = border
    out[..., n, :n] = -border
    return out


def _pfaffian_ratio(a, delta):
    """Pf(a + delta) / Pf(a) for one skew matrix a and a stack of skew matrices delta.

    One Parlett-Reid elimination M a M^T = B of a (linalg._skew_eliminate),
    scaled by S so that each 2x2 block of S B S is +-[[0, 1], [-1, 0]],
    turns the ratio into Pf(S B S + S M delta M^T S) / Pf(S B S), whose
    pivots are near +-1 while delta is small: its rounding error then
    shrinks with delta instead of growing with a's condition number.
    """
    _, pivots, m = linalg._skew_eliminate(a[..., None].copy())
    signs = np.sign(pivots[:, 0])
    scaled = np.repeat(np.abs(pivots[:, 0]) ** -0.5, 2)[:, None] * m[..., 0]
    upper = np.zeros(a.shape)
    upper[0::2, 1::2] = np.diag(signs)
    # the products round away from skew symmetry in proportion to S M's size
    change = scaled @ delta @ scaled.T
    change = (change - np.swapaxes(change, -1, -2)) / 2
    return linalg.pfaffian(upper - upper.T + change) / np.prod(signs)


def _count_above(above, total, n, beta):
    """P(exactly m coordinates above s), m = 0..N, from the integrals above s of coordinate_cdf.

    The chamber mass with the coordinates above s weighted by c, a degree-N
    polynomial in c, is solved for from its values at c = cos(pi j / N),
    each over the mass at c = 1.  Each matrix is the total's plus a change
    in the integrals above s, which vanishes as s grows: for beta = 2 the
    ratio is det(total + (c - 1) A) / det(total), A the Gram integrals above
    s, which needs no symmetry of the Gram matrix, and for beta = 1 the
    Pfaffian is taken as a ratio to the total's (_pfaffian_ratio), so the
    law stays resolved where it nears 1.
    """
    c = np.cos(np.pi * np.arange(n + 1) / n)
    cc = c[1:, None, None]
    above = above[:, None]
    if beta == 2:
        ratio = np.linalg.det(total + (cc - 1) * above) / _chamber_mass(total, n, beta)
    else:
        # weights 1 below s and c above give L(s) + c X + c^2 (L(inf) - L(s) - X), bordered
        # by B(s) + c (B(inf) - B(s)).  X = K - K^T vanishes at s = inf, so in the integrals
        # above s that is the total plus (c^2 - 1) L + (c - c^2) X, bordered by (c - 1) B
        k = above[..., n:2 * n]
        delta = (cc * cc - 1) * above[..., :n] + (cc - cc * cc) * (np.swapaxes(k, -1, -2) - k)
        ratio = _pfaffian_ratio(_de_bruijn_matrix(total[:, :n], total[:, 2 * n]),
                                _de_bruijn_matrix(delta, (cc[..., 0] - 1) * above[..., 2 * n]))
    vals = np.ones((len(above), n + 1))
    vals[:, 1:] = ratio
    return np.linalg.solve(np.vander(c, increasing=True), vals.T).T


def _grid(lo, hi, width, what):
    """(panel width, nodes, weights, weights up to each node of its panel) on [lo, hi]."""
    panels = math.ceil((hi - lo) / width)
    if panels * COORDINATE_ORDER > COORDINATE_NODES:
        raise ValueError("%s needs more than %d nodes" % (what, COORDINATE_NODES))
    h = (hi - lo) / panels
    nodes, weights = _gl_nodes(COORDINATE_ORDER)
    q = (lo + h * np.arange(panels)[:, None] + h / 2 * (nodes + 1)).ravel()
    return h, q, np.tile(h / 2 * weights, panels), _antiderivative_weights(nodes) * (h / 2)


def _tables(phi, grid, root, wall, beta):
    """Integrands f, (panels, COORDINATE_ORDER, n, d), of the basis phi on grid, rest and total.

    rest[j] holds their integrals over the panels from j on, and total
    their integral over the grid, summed forward: phi_i phi_j for beta = 2
    (d = n), L, K and B of coordinate_cdf for beta = 1 (d = 2n + 1).
    """
    h, q, w, partial = grid
    if beta == 2:
        f = phi[:, :, None] * phi[:, None]
    else:
        below, above = _kernel_integrals(phi, q, w, partial, root, wall)
        border = psi(q / (math.sqrt(2) * root))[:, None] if wall and root else 1.0
        f = np.concatenate([phi[:, :, None] * below[:, None] - below[:, :, None] * phi[:, None],
                            phi[:, :, None] * above[:, None] + below[:, :, None] * phi[:, None],
                            (phi * border)[:, :, None]], axis=2)
    f = f.reshape((-1, COORDINATE_ORDER) + f.shape[1:])
    panels = np.tensordot(w[:COORDINATE_ORDER], f, axes=(0, 1))
    zero = np.zeros((1,) + panels.shape[1:])
    rest = np.concatenate([np.cumsum(panels[::-1], axis=0)[::-1], zero])
    return f, rest, np.cumsum(panels, axis=0)[-1]


@functools.lru_cache(maxsize=8)
def _integrand_tables(n, wall, beta, root):
    """(lo, h, f, rest, total): grid start, panel width and _tables of phi_i = P_i e^{-x^2 / 2 beta}.

    For one origin law at root = sqrt((T - t) / t); read-only, as calls share them.
    """
    reach = math.sqrt(8 * n) + 8.0
    lo = 0.0 if wall else -reach
    width = min(COORDINATE_PANEL, KERNEL_PANEL * root) if root else COORDINATE_PANEL
    grid = _grid(lo, reach, width, "t is too close to the horizon: the kernel's scale "
                 "sqrt((T - t) / t) = %.3g" % root)
    phi = np.exp(-grid[1] ** 2 / (2 * beta))[:, None] * _hermite_basis(n, wall, beta, grid[1])
    f, rest, total = _tables(phi, grid, root, wall, beta)
    f.flags.writeable = rest.flags.writeable = total.flags.writeable = False
    return lo, grid[0], f, rest, total


def _origin_mass(n, wall, beta):
    """int e^{-|x|^2 / 2} |h(x)|^beta over the chamber: h_poly, or h_hat_poly behind the wall.

    The origin basis's _chamber_mass at t = T, built uncached, over its
    leading coefficients sqrt(2 / beta)^k / sqrt(k!) at the degrees
    k = 0..N-1, or 1, 3, ..., 2N - 1 behind the wall (squared for beta = 2).
    """
    lead = math.prod(math.sqrt((2 / beta) ** k / math.factorial(k))
                     for k in (range(1, 2 * n, 2) if wall else range(n)))
    total = _integrand_tables.__wrapped__(n, wall, beta, 0.0)[4]
    return _chamber_mass(total, n, beta) / lead ** beta


def coordinate_cdf(spec, t, s):
    """P(y_k <= s) for every coordinate k of the origin-start law at time t.

    Covers, free and behind the wall at any N, the p family at any t > 0
    (GUE, class C) and the g family at 0 < t <= horizon (the two-matrix law
    and its class C analogue; GOE and class CI at t = T).  The result has
    shape s.shape + (N,), coordinates ascending.

    In x = y / sqrt(t), with phi_i = P_i e^{-x^2 / 2 beta} in the basis of
    _hermite_basis, each law is det[phi_i(x_j)]^2 (beta = 2, p) or
    det[phi_i(x_j)] Pf[eps(x_i, x_j)] (beta = 1, g), eps the survival
    matrix entry at tau = T - t (_kernel; sgn at t = T), bordered for odd N
    by b(x) = psi(x sqrt(t / 2 tau)) behind the wall and 1 free.
    Weighting each coordinate by 1{x <= s} + c 1{x > s} makes the chamber
    integral a polynomial in c whose coefficient of c^m is P(exactly m
    coordinates above s):

    * beta = 2, Andreief: det(G(s) + c A(s)) = det(G(inf) + (c - 1) A(s)),
      G(s) = int^s phi_i phi_j and A(s) = G(inf) - G(s) = int_s^inf phi_i phi_j;
    * beta = 1, de Bruijn: Pf(L + c X + c^2 R), L(s) = int^s (phi G<^T -
      G< phi^T), K(s) = int^s (phi G>^T + G< phi^T), X = K - K^T,
      R = L(inf) - L - X, with G< and G> the integrals of eps(u, y) phi(y)
      over y < u and y > u; odd N is bordered by B(s) + c (B(inf) - B(s)),
      B(s) = int^s phi b.  G comes from _kernel_integrals; at t = T it
      is G< = -Phi and G> = Phi(inf) - Phi for Phi = int^u phi.  As X
      vanishes at s = inf, the matrix is the total plus a change written
      in the integrals above s, and its Pfaffian is taken as a ratio to the
      total's that stays accurate as the change vanishes (_pfaffian_ratio).

    All integrals share one grid from lo (0 behind the wall, -reach free)
    to reach = sqrt(8N) + 8, past which no law has mass float64 can see:
    panels of COORDINATE_ORDER Gauss-Legendre nodes at most COORDINATE_PANEL
    wide, and before the horizon at most KERNEL_PANEL sqrt((T - t) / t),
    the scale of eps.  The integrands are tabulated at the nodes once
    (_integrand_tables); for both beta each s takes the whole panels above
    it and its own panel from it with Lagrange-antiderivative weights, in
    blocks of s that bound memory.
    Against chamber quadrature the values agree to 1e-10 at N <= 3 for
    t / T up to 0.99; they are monotone to 1e-12 at N <= 8 for
    t / T >= 0.9 (N <= 5 for t / T >= 0.5).  Before the horizon the de Bruijn
    matrix loses conditioning as t / T falls, the faster the larger N (error
    1e-10 at N = 8, t / T = 0.5, wall): the law at the grid's two ends, 0
    and 1, is computed along, and an error there above COORDINATE_ERROR
    raises ValueError, as do more than COORDINATE_NODES nodes (t too near the
    horizon), t outside (0, horizon] and NaN in s.
    """
    n, T, wall = spec.n_walkers, spec.horizon, spec.wall
    beta = 1 if math.isfinite(T) else 2
    if not (0 < t <= T and t < math.inf):
        raise ValueError("need 0 < t <= horizon and t finite, got t = %r" % (t,))
    s = np.asarray(s, dtype=float)
    if np.isnan(s).any():
        raise ValueError("s must not be NaN")
    lo, h, f, rest, total = _integrand_tables(n, wall, beta,
                                              math.sqrt((T - t) / t) if beta == 1 else 0.0)
    panels = len(f)
    ends = (lo, lo + h * panels)
    x = np.concatenate([np.clip(s.ravel() / math.sqrt(t), *ends), ends])
    weights = _gl_nodes(COORDINATE_ORDER)[1] * (h / 2)
    above = np.empty((len(x), n + 1))
    rows = max(SLAB_POINTS // (COORDINATE_ORDER * f.shape[-2] * f.shape[-1]), 1)
    for r in range(0, len(x), rows):
        xr = x[r:r + rows]
        k = np.minimum(((xr - lo) / h).astype(int), panels - 1)
        part = _antiderivative_weights(2 * (xr - lo - h * k) / h - 1) * (h / 2)
        ints = rest[k + 1] + np.einsum("so,so...->s...", weights - part, f[k])
        above[r:r + rows] = _count_above(ints, total, n, beta)
    cdf = np.cumsum(above, axis=-1)[:, n - 1::-1]
    error = max(np.abs(cdf[-2]).max(), np.abs(1 - cdf[-1]).max())
    if error > COORDINATE_ERROR:
        raise ValueError("float64 cannot resolve the law at N = %d, t = %r: the de Bruijn "
                         "matrix is too ill-conditioned (error %.1e at the grid's ends, "
                         "where the law is 0 and 1)" % (n, t, error))
    cdf[x <= lo] = 0.0
    return np.clip(cdf[:-2], 0.0, 1.0).reshape(s.shape + (n,))


# ---------------------------------------------------------------------------
# Drifts


def _first_bad(xs, bad):
    """(label, x) of the first row of xs where the batch mask bad holds, for an error message."""
    row = tuple(int(i) for i in np.unravel_index(np.argmax(bad), np.shape(bad)))
    return row[0] if len(row) == 1 else row, xs[row]


def _check_rows(xs, wall):
    """Raise ValueError at the first row of xs that is not a chamber point the drift is defined at.

    Rows must be finite and strictly increasing, with x_1 > 0 behind the
    wall.  The whole batch is checked at once; rows are told apart only to
    name the first bad one.
    """
    gaps = np.diff(xs, axis=-1)
    if np.isfinite(xs).all() and (gaps > 0).all() and not (wall and (xs[..., 0] <= 0).any()):
        return
    ok = np.isfinite(xs).all(axis=-1) & (gaps > 0).all(axis=-1)
    if wall:
        ok &= xs[..., 0] > 0
    label, x = _first_bad(xs, ~ok)
    why = ("is not finite" if not np.isfinite(x).all() else
           "is not strictly increasing, where the drift is singular" if (np.diff(x) <= 0).any()
           else "has x_1 <= 0, on the wall or behind it")
    raise ValueError("row %s (x = %s) %s: the drift is undefined there" % (label, x, why))


def _p_drift(xs, wall):
    """The p family's drift at rows xs known to be in the chamber, the shape of xs.

    sum_{l != k} 1/(x_k - x_l), plus 1/x_k + sum_{l != k} 1/(x_k + x_l)
    behind the wall, with no checks: drift_batch checks its rows first, and
    the Euler steps (montecarlo._em_advance) keep theirs in the chamber.
    Each sum adds walker k's terms in ascending order of the partner l, one
    after the other, so a row's drift does not depend on the rows batched
    with it (but for a batch of one row from nine walkers on, which numpy
    sums pairwise).  One walker has only the wall term; for two, walker k's
    partner is walker 1 - k, xs reversed along its last axis, and the sums
    are written out; from three walkers the terms are gathered batch-last,
    (n, n - 1, rows), and summed along the partner axis, which costs less
    there than writing out each pair.
    """
    n = xs.shape[-1]
    if n == 1:
        return 1.0 / xs if wall else np.zeros(xs.shape)
    if n == 2:
        other = xs[..., ::-1]
        b = 1.0 / (xs - other)
        if wall:
            b += 1.0 / xs
            b += 1.0 / (xs + other)
        return b
    x = xs.reshape((-1, n)).T
    partner = x[_partners(n)]
    terms = np.subtract(x[:, None], partner, order="C")
    b = np.divide(1.0, terms, out=terms).sum(axis=1)
    if wall:
        np.add(x[:, None], partner, out=terms)
        b += 1.0 / x
        b += np.divide(1.0, terms, out=terms).sum(axis=1)
    return b.T.reshape(xs.shape)


def drift(spec, t, x):
    """Drift vector of the conditioned diffusion at time t, at one configuration."""
    return drift_batch(spec, t, _check_chamber(x, spec.wall)[None, :])[0]


def drift_batch(spec, t, xs):
    """Drift evaluated across a batch of configurations.

    xs holds configurations along its last axis; the drift has the shape
    of xs.  Every row must be finite and strictly increasing, with x_1 > 0
    behind the wall; the first row that is not raises ValueError naming it.

    Finite horizon: the gradient of log survival(T - t, .),
    exactly, from d_k log Pf(A) = sum_j (A^-1)_jk dA_kj/dx_k over the
    survival matrix A.  A and D = dA/dx come batch-last, (d, d, b), from
    _survival_matrix, and one Parlett-Reid elimination of A in place,
    M A M^T = B (linalg._skew_eliminate), gives A^-1 = M^T B^-1 M with B
    block-diagonal, so no inverse is formed.  A row whose survival matrix
    is singular in float64 (a zero pivot) raises ValueError.

    Infinite horizon: the closed interacting form of _p_drift.
    """
    n, T, wall = spec.n_walkers, spec.horizon, spec.wall
    xs = np.asarray(xs, dtype=float)
    _check_rows(xs, wall)
    if math.isinf(T):
        return _p_drift(xs, wall)
    if not (t < T):
        raise ValueError("the finite-horizon drift is singular at t = horizon")
    a, d = _survival_matrix(T - t, xs, wall)
    _, pivots, m = linalg._skew_eliminate(a)
    singular = np.any(pivots == 0.0, axis=0).reshape(xs.shape[:-1])
    if singular.any():
        raise ValueError("survival matrix of row %s (x = %s) is singular: the drift is "
                         "undefined there" % _first_bad(xs, singular))
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


def de_bruijn_check(t, x, wall=False):
    """|Pf - survival(t, x)| / survival(t, x), de Bruijn's reduction of int km_density(t, x, .).

    Pf is the _chamber_mass of the basis phi_i = k_1(x_i / sqrt(t), .)
    (reflected behind the wall) with eps = sgn, on a grid from 9 below
    min(x) / sqrt(t) (0 behind the wall) to 9 past max(x) / sqrt(t), at any
    N.  A grid of more than COORDINATE_NODES nodes, t outside (0, inf), x
    not a chamber point (_check_chamber) and survival 0 raise ValueError.
    """
    if not 0 < t < math.inf:
        raise ValueError("need 0 < t < inf, got t = %r" % (t,))
    x = _check_chamber(x, wall)
    surv = survival(t, x, wall)
    if not surv > 0:
        raise ValueError("x = %s has survival 0 at t = %r" % (x, t))
    u = x / math.sqrt(t)
    grid = _grid(0.0 if wall else u[0] - 9.0, u[-1] + 9.0, COORDINATE_PANEL,
                 "the start x = %s at t = %r" % (x, t))
    q = grid[1][:, None]
    phi = np.exp(-(q - u) ** 2 / 2) - (np.exp(-(q + u) ** 2 / 2) if wall else 0.0)
    total = _tables(phi / math.sqrt(2 * math.pi), grid, 0.0, wall, 1)[2]
    return abs(_chamber_mass(total, len(x), 1) - surv) / surv
