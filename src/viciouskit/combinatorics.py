"""Exact counting of nonintersecting lattice walks.

Counts N-tuples of ±1 walks that keep strict order (optionally staying
nonnegative behind a wall): binomial determinants for fixed endpoints, one
Stembridge Pfaffian for the survival over free endpoints (exact integer or
normalised float arithmetic), a brute-force dynamic-programming oracle and
the diffusion-scaling survival asymptotics.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .special_functions import _small_gap_survival

__all__ = [
    "LatticeConfig",
    "WalkCount",
    "count_paths",
    "walk_probability",
    "survival_probability",
    "oracle_count_dp",
    "scaled_survival",
    "time_lattice",
]

@dataclass(frozen=True)
class LatticeConfig:
    """Strictly increasing even start/end configuration on the integer lattice."""

    positions: tuple
    wall: bool = False

    def __post_init__(self):
        pos = tuple(int(p) for p in self.positions)
        object.__setattr__(self, "positions", pos)
        if not pos:
            raise ValueError("need at least one walker")
        if any(p % 2 != 0 for p in pos):
            raise ValueError("lattice positions must be even")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("lattice positions must be strictly increasing")
        if self.wall and pos[0] < 0:
            raise ValueError("wall configurations must be nonnegative")

    def __len__(self):
        return len(self.positions)


@dataclass(frozen=True)
class WalkCount:
    value: int
    steps: int
    n_walkers: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("path count cannot be negative")
        if self.value > (1 << (self.steps * self.n_walkers)):
            raise ValueError("count exceeds the trivial 2^{mN} bound")


def _bareiss_det(m):
    """Exact determinant of a square integer matrix: content reduction, then Bareiss.

    Each row, then each column, is divided by the gcd of its entries, and
    the determinant is the product of those contents times the reduced
    matrix's fraction-free (Bareiss 1968) determinant.  Binomial entries
    share nearly all of their bits, so the elimination runs on small
    integers.  A zero row or column gives 0.
    """
    a = [list(row) for row in m]
    n = len(a)
    content = 1
    for i in range(n):
        g = math.gcd(*a[i])
        if g == 0:
            return 0
        a[i] = [x // g for x in a[i]]
        content *= g
    for j in range(n):
        g = math.gcd(*(row[j] for row in a))
        if g == 0:
            return 0
        for row in a:
            row[j] //= g
        content *= g
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * content * a[n - 1][n - 1]


def _binomial_row(m, lo=0, hi=None):
    """The exact binomials C(m, k), k = lo..hi (default 0..m), as a list of Python ints.

    One math.comb(m, lo), then the recurrence C(m, k+1) = C(m, k)(m-k)/(k+1),
    whose divisions are exact.  Empty when lo > hi.
    """
    hi = m if hi is None else hi
    row = [math.comb(m, lo)] if lo <= hi else []
    for k in range(lo, hi):
        row.append(row[-1] * (m - k) // (k + 1))
    return row


def count_paths(m, u, v):
    """Exact number of nonintersecting walk tuples from u to v in m steps.

    Binomial determinant det C(m, (m+u_j-v_i)/2), with the reflected
    correction term C(m, (m+u_j+v_i)/2 + 1) subtracted entrywise for the
    wall model, taken by _bareiss_det.  Only the binomials whose k the
    entries reach are built.  Infeasible endpoints (bad parity, out of
    order, out of reach, behind the wall) count zero.
    """
    if m < 0:
        raise ValueError("step count must be nonnegative")
    v = tuple(int(p) for p in v)
    n = len(u)
    if len(v) != n:
        raise ValueError("start and end configurations differ in length")
    if any(b <= a for a, b in zip(v, v[1:])) or (u.wall and v[0] < 0):
        return WalkCount(value=0, steps=m, n_walkers=n)
    # C(m, k) keyed by 2k: key m + a - b reads C(m, (m + a - b)/2), and an odd
    # key or one out of range reads 0
    keys = [m + a - b for a in u.positions for b in v]
    if u.wall:
        keys += [m + a + b + 2 for a in u.positions for b in v]
    lo, hi = max(-(-min(keys) // 2), 0), min(max(keys) // 2, m)
    binom = {2 * k: c for k, c in enumerate(_binomial_row(m, lo, hi), lo)}.get
    val = _bareiss_det([[binom(m + a - b, 0) - (binom(m + a + b + 2, 0) if u.wall else 0)
                         for a in u.positions] for b in v])
    if val < 0:
        raise AssertionError("determinant count came out negative: %d" % val)
    return WalkCount(value=val, steps=m, n_walkers=n)


def walk_probability(m, u, v):
    """Exact probability of the nonintersecting walk event with fixed endpoints."""
    c = count_paths(m, u, v)
    return Fraction(c.value, 1 << (m * len(u)))


def _binomial_half_row(m):
    """The binomial(m, 1/2) probabilities C(m, k) / 2^m for k = 0..m, as floats.

    Built outward from the central term by the ratios (m-k)/(k+1) and
    mirrored, since the row is symmetric (Loader 2000).  The central term
    for m = 2n is prod_{j<=n} (1 - 1/(2j)), summed in logs with fsum, times
    m/(m+1) for odd m.  Entries above 1e-300 are within 4e-15 (relative) of
    exact at m = 16384; the tails underflow to zero.
    """
    c = m // 2
    p = math.exp(math.fsum(np.log1p(-0.5 / np.arange(1, c + 1)).tolist()))
    if m % 2:
        p *= m / (m + 1)
    k = np.arange(c, m)
    half = p * np.cumprod(np.append(1.0, (m - k) / (k + 1)))  # k = c..m
    # row[k] = row[m - k]: half[m-c .. 1] (even m) or half[m-c .. 2] (odd m)
    return np.concatenate([half[:m % 2:-1], half])


def _walk_weights(m, u, exact):
    """Single-walk weights w[i, k] from u_i to the k-th endpoint of one grid.

    The weight is the binomial C(m, (m+v-u_i)/2), less the reflected term
    C(m, (m+u_i+v)/2 + 1) behind the wall, where the grid starts at v >= 0.
    Python ints from _binomial_row when exact, else the binomial(m, 1/2)
    probabilities, which are the binomials normalised by 2^m (see
    _binomial_half_row).
    """
    pos = np.asarray(u.positions)
    lo = pos[0] - m
    if u.wall:
        lo = max(lo, m % 2)
    v = np.arange(lo, pos[-1] + m + 1, 2)
    if exact:
        row = np.array(_binomial_row(m) + [0], dtype=object)
    else:
        row = np.append(_binomial_half_row(m), 0.0)

    def binom(k):
        # C(m, k), with index m + 1 holding the zero for k outside [0, m]
        return row[np.where((k >= 0) & (k <= m), k, m + 1)]

    w = binom((m + v[None, :] - pos[:, None]) // 2)
    if u.wall:
        w = w - binom((m + v[None, :] + pos[:, None]) // 2 + 1)
    return w


def survival_probability(m, u, exact=True):
    """Probability that all walkers keep strict order (and stay >= 0 behind a wall).

    Stembridge's Pfaffian for free endpoints: Pf[Q(u_i, u_j)] / 2^{mN},
    where Q(a, b) = sum_v [w_b(v) W_a(<v) - w_a(v) W_b(<v)] counts the
    nonintersecting pairs of walks from a and b, w is the single-walk
    weight and W its running sum; for odd N the matrix is bordered by the
    single-walk totals.  The Pfaffian counts tuples, so it is the square
    root of the determinant.  `exact` selects exact integer arithmetic (a
    Fraction) or normalised float arithmetic (a float).
    """
    if m < 0:
        raise ValueError("step count must be nonnegative")
    n = len(u)
    w = _walk_weights(m, u, exact)
    # pair[i, j] = sum_v W_i(<v) w_j(v), so a[i, j] = Q(u_i, u_j)
    pair = (np.cumsum(w, axis=1) - w) @ w.T
    a = pair - pair.T
    if n % 2:
        total = w.sum(axis=1)[:, None]
        a = np.block([[a, total], [-total.T, np.zeros((1, 1), a.dtype)]])
    if not exact:
        return math.sqrt(max(np.linalg.det(a), 0.0))
    det = _bareiss_det(a.tolist())
    pf = math.isqrt(det)
    if pf * pf != det:
        raise AssertionError("Pfaffian determinant %d is not a perfect square" % det)
    return Fraction(pf, 1 << (m * n))


def oracle_count_dp(m, u, return_steps=False):
    """Brute-force DP over joint ordered configurations.

    Independent of the determinant route; enforces strict order (and the
    wall constraint at steps 1..m) at every step.  Returns a dict endpoint
    -> WalkCount, or (with return_steps) the list of those dicts after
    steps 1..m.  Counts are held in int64, safe up to 2^{mN} < 2^63.  At
    most 4 walkers and 12 steps.
    """
    n = len(u)
    if n > 4 or m > 12:
        raise ValueError("instance too large for the DP oracle")
    if m * n >= 62:
        raise ValueError("counts could overflow the DP accumulator")

    moves = np.array([[1 if k >> i & 1 else -1 for i in range(n)]
                      for k in range(1 << n)], dtype=np.int64)
    states = np.asarray([u.positions], dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    offset = abs(min(u.positions)) + m + 1
    base = max(u.positions) + offset + m + 2

    def table(steps):
        return {tuple(s): WalkCount(value=c, steps=steps, n_walkers=n)
                for s, c in zip(states.tolist(), counts.tolist())}

    snapshots = []
    for k in range(m):
        new = (states[:, None, :] + moves[None, :, :]).reshape(-1, n)
        cnt = np.repeat(counts, 1 << n)
        ok = new[:, 0] >= 0 if u.wall else np.ones(len(new), dtype=bool)
        for i in range(n - 1):
            ok &= new[:, i + 1] > new[:, i]
        new, cnt = new[ok], cnt[ok]
        keys = (new + offset) @ (base ** np.arange(n, dtype=np.int64))
        uniq, inv = np.unique(keys, return_inverse=True)
        agg = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(agg, inv, cnt)
        first = np.full(len(uniq), -1, dtype=np.int64)
        first[inv[::-1]] = np.arange(len(keys) - 1, -1, -1)
        states, counts = new[first], agg
        if return_steps:
            snapshots.append(table(k + 1))
    return snapshots if return_steps else table(m)


def time_lattice(scale, t):
    """Even lattice time 2*floor(scale^2 * t / 2) used by the diffusion scaling."""
    return 2 * int(math.floor(scale * scale * t / 2.0))


def scaled_survival(scale, t, u):
    """Lattice survival at diffusion time t against its scaling-limit prediction.

    The survival is the float-arithmetic Pfaffian of survival_probability
    at m = time_lattice(scale, t) steps.  Returns (survival, prediction,
    ratio) where the prediction is
    h(u/(scale*sqrt(t)))/c_bar for the free model and the h_hat/c_tilde
    analogue behind the wall.  Free model: the ratio tends to 1 as the
    scale grows at fixed u.  Wall model: the discrete boundary sits at -1,
    which inflates the survival by roughly prod (u_i+1)/u_i, so the ratio
    approaches 1 only when the start positions grow with the scale.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if t <= 0:
        raise ValueError("time must be positive")
    m = time_lattice(scale, t)
    surv = survival_probability(m, u, exact=False)
    x = np.asarray(u.positions, dtype=float) / (scale * math.sqrt(t))
    pred = _small_gap_survival(x, u.wall)
    return surv, pred, surv / pred if pred != 0 else math.inf
