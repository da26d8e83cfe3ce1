"""Exact counting of nonintersecting lattice walks.

Counts N-tuples of ±1 walks that keep strict order (optionally staying
nonnegative behind a wall) with binomial determinants, evaluated in exact
integer arithmetic, plus a brute-force dynamic-programming oracle and the
diffusion-scaling survival asymptotics.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .special_functions import constants, h_poly, h_hat_poly

__all__ = [
    "LatticeConfig",
    "WalkCount",
    "count_paths",
    "count_paths_batch",
    "walk_probability",
    "survival_probability",
    "oracle_count_dp",
    "scaled_survival",
    "time_lattice",
]

# exact enumeration budget for the survival sum; above this the scaled
# survival path switches to float determinants
EXACT_SUPPORT_CAP = 60_000
EXACT_STEP_CAP = 64


@dataclass(frozen=True)
class LatticeConfig:
    """Strictly increasing even start/end configuration on the integer lattice."""

    positions: tuple
    wall: bool = False

    def __post_init__(self):
        pos = tuple(int(p) for p in self.positions)
        object.__setattr__(self, "positions", pos)
        if any(p % 2 != 0 for p in pos):
            raise ValueError("lattice positions must be even")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("lattice positions must be strictly increasing")
        if self.wall and pos and pos[0] < 0:
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
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [list(row) for row in m]
    n = len(a)
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
    return sign * a[n - 1][n - 1]


def _binom_entry(m, u_j, v_i, wall):
    top = m + u_j - v_i
    if top % 2 != 0:
        return 0
    e = math.comb(m, top // 2) if 0 <= top // 2 <= m else 0
    if wall:
        k2 = (m + u_j + v_i) // 2 + 1
        e -= math.comb(m, k2) if 0 <= k2 <= m else 0
    return e


def _endpoint_positions(v, u):
    """Accept a LatticeConfig or a raw integer sequence as the endpoint."""
    if isinstance(v, LatticeConfig):
        if v.wall != u.wall:
            raise ValueError("start and end configurations differ in wall flag")
        return v.positions
    return tuple(int(p) for p in v)


def _check_pair(m, u, v_pos):
    if m < 0:
        raise ValueError("step count must be nonnegative")
    if len(u) != len(v_pos):
        raise ValueError("start and end configurations differ in length")


def count_paths(m, u, v):
    """Exact number of nonintersecting walk tuples from u to v in m steps.

    Binomial determinant det C(m, (m+u_j-v_i)/2), with the reflected
    correction term C(m, (m+u_j+v_i)/2 + 1) subtracted entrywise for the
    wall model.  Infeasible endpoints (bad parity, out of order, out of
    reach, behind the wall) count zero.
    """
    v_pos = _endpoint_positions(v, u)
    _check_pair(m, u, v_pos)
    n = len(u)
    if any(b <= a for a, b in zip(v_pos, v_pos[1:])) or (u.wall and n and v_pos[0] < 0):
        return WalkCount(value=0, steps=m, n_walkers=n)
    mat = [[_binom_entry(m, u.positions[j], v_pos[i], u.wall) for j in range(n)] for i in range(n)]
    val = _bareiss_det(mat)
    if val < 0:
        raise AssertionError("determinant count came out negative: %d" % val)
    return WalkCount(value=val, steps=m, n_walkers=n)


def walk_probability(m, u, v):
    """Exact probability of the nonintersecting walk event with fixed endpoints."""
    c = count_paths(m, u, v)
    return Fraction(c.value, 1 << (m * len(u)))


def _endpoint_support(m, u):
    """Iterate strictly increasing parity-consistent endpoints v."""
    n = len(u)
    pos = u.positions

    def rec(i, lower, acc):
        if i == n:
            yield tuple(acc)
            return
        lo = pos[i] - m
        if u.wall and i == 0:
            lo = max(lo, 0 if m % 2 == 0 else 1)
        lo = max(lo, lower)
        # match endpoint parity: v_i - u_i must have the parity of m
        if (lo - pos[i] - m) % 2 != 0:
            lo += 1
        hi = pos[i] + m
        for vi in range(lo, hi + 1, 2):
            acc.append(vi)
            yield from rec(i + 1, vi + 1, acc)
            acc.pop()

    yield from rec(0, -(1 << 62), [])


def survival_probability(m, u, exact=True):
    """Probability that all walkers keep strict order (and stay >= 0 behind a wall).

    Sums the endpoint determinants over the reachable support; exact
    rational arithmetic by default.
    """
    if m < 0:
        raise ValueError("step count must be nonnegative")
    n = len(u)
    total = 0
    for v_pos in _endpoint_support(m, u):
        mat = [[_binom_entry(m, u.positions[j], v_pos[i], u.wall) for j in range(n)] for i in range(n)]
        total += _bareiss_det(mat)
    if exact:
        return Fraction(total, 1 << (m * n))
    return total / float(1 << (m * n))


def oracle_count_dp(m, u, v=None, max_walkers=4, max_steps=12, return_steps=False):
    """Brute-force DP over joint ordered configurations.

    Independent of the determinant route; enforces strict order (and the
    wall constraint at steps 1..m) at every step.  Returns a WalkCount for a
    fixed endpoint v, a dict endpoint -> count when v is None, or (with
    return_steps) the list of those dicts after steps 1..m.  Counts are
    held in int64, safe up to 2^{mN} < 2^63.
    """
    n = len(u)
    if n > max_walkers or m > max_steps:
        raise ValueError("instance too large for the DP oracle")
    if m * n >= 62:
        raise ValueError("counts could overflow the DP accumulator")
    v_pos = None
    if v is not None:
        v_pos = _endpoint_positions(v, u)
        _check_pair(m, u, v_pos)

    moves = np.array([[1 if k >> i & 1 else -1 for i in range(n)]
                      for k in range(1 << n)], dtype=np.int64)
    states = np.asarray([u.positions], dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    offset = abs(min(u.positions)) + m + 1
    base = max(u.positions) + offset + m + 2
    snapshots = []
    for _ in range(m):
        new = (states[:, None, :] + moves[None, :, :]).reshape(-1, n)
        cnt = np.repeat(counts, 1 << n)
        ok = np.all(new[:, 1:] > new[:, :-1], axis=1) if n > 1 else np.ones(len(new), bool)
        if u.wall:
            ok &= new[:, 0] >= 0
        new, cnt = new[ok], cnt[ok]
        keys = (new + offset) @ (base ** np.arange(n, dtype=np.int64))
        uniq, inv = np.unique(keys, return_inverse=True)
        agg = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(agg, inv, cnt)
        first = np.full(len(uniq), -1, dtype=np.int64)
        first[inv[::-1]] = np.arange(len(keys) - 1, -1, -1)
        states, counts = new[first], agg
        if return_steps:
            snapshots.append({tuple(int(p) for p in s): int(c)
                              for s, c in zip(states, counts)})
    table = {tuple(int(p) for p in s): int(c) for s, c in zip(states, counts)}
    if return_steps:
        return [{cfg: WalkCount(value=c, steps=k + 1, n_walkers=n)
                 for cfg, c in snap.items()} for k, snap in enumerate(snapshots)]
    if v is not None:
        return WalkCount(value=table.get(v_pos, 0), steps=m, n_walkers=n)
    return {cfg: WalkCount(value=c, steps=m, n_walkers=n) for cfg, c in table.items()}


def count_paths_batch(m, u, v_array):
    """Exact determinant counts for many endpoints at once (N <= 4).

    Cofactor (permutation-sum) expansion in int64; raises if the worst-case
    magnitude could overflow.
    """
    import itertools

    n = len(u)
    if n > 4:
        raise ValueError("batched counts support N <= 4")
    v_array = np.asarray(v_array, dtype=np.int64)
    if v_array.ndim != 2 or v_array.shape[1] != n:
        raise ValueError("v_array must be (batch, N)")
    peak = math.comb(m, m // 2)
    if math.factorial(n) * peak ** n >= 2 ** 62:
        raise ValueError("entries too large for exact int64 expansion")
    comb = np.array([math.comb(m, k) for k in range(m + 1)], dtype=np.int64)

    def entry(uj, vi):
        top = m + uj - vi
        val = np.where((top % 2 == 0) & (top >= 0) & (top <= 2 * m),
                       comb[np.clip(top // 2, 0, m)], 0)
        if u.wall:
            t2 = (m + uj + vi) // 2 + 1
            val = val - np.where((top % 2 == 0) & (t2 >= 0) & (t2 <= m),
                                 comb[np.clip(t2, 0, m)], 0)
        return val.astype(np.int64)

    mat = np.empty((len(v_array), n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            mat[:, i, j] = entry(u.positions[j], v_array[:, i])
    det = np.zeros(len(v_array), dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = np.ones(len(v_array), dtype=np.int64)
        for i in range(n):
            term = term * mat[:, i, perm[i]]
        det += sign * term
    return det


def time_lattice(scale, t):
    """Even lattice time 2*floor(scale^2 * t / 2) used by the diffusion scaling."""
    return 2 * int(math.floor(scale * scale * t / 2.0))


def _survival_float(m, u):
    """Float determinant survival sum, vectorized over the endpoint support."""
    n = len(u)
    pos = np.asarray(u.positions)
    # normalized binomial weights w[offset] = C(m, (m+offset)/2) / 2^m
    offsets = np.arange(-m, m + 1, 2)
    logw = (
        math.lgamma(m + 1)
        - np.array([math.lgamma((m + o) // 2 + 1) + math.lgamma((m - o) // 2 + 1) for o in offsets])
        - m * math.log(2.0)
    )
    w = np.exp(logw)

    def weight(delta):
        # normalized binomial weight at a signed offset; zero outside [-m, m]
        # or off the parity class of m
        mask = (np.abs(delta) <= m) & ((delta - m) % 2 == 0)
        idx = np.where(mask, (delta + m) // 2, 0)
        return np.where(mask, w[np.clip(idx, 0, m)], 0.0)

    # candidate endpoint values per walker; the reachability box is cut at
    # 14 standard deviations, where the remaining (nonnegative) mass of the
    # determinant sum is below 1e-40
    cut = 2 * int(7.0 * math.sqrt(m)) + 2
    cands = []
    for i in range(n):
        lo = max(pos[i] - m, pos[i] - cut)
        lo += (lo - pos[i] - m) % 2
        if u.wall and i == 0:
            lo = max(lo, 0 if m % 2 == 0 else 1)
        ci = np.arange(lo, min(pos[i] + m, pos[i] + cut) + 1, 2)
        cands.append(ci)

    # ordered support, one slab of first-walker candidates at a time: each
    # slab has at most max(chunk, product of the other candidate counts) rows
    chunk = 200_000
    slab = max(chunk // math.prod(len(c) for c in cands[1:]), 1)
    total = 0.0
    for start in range(0, len(cands[0]), slab):
        grids = np.meshgrid(cands[0][start:start + slab], *cands[1:], indexing="ij")
        v = np.stack([g.ravel() for g in grids], axis=-1)
        v = v[np.all(v[:, 1:] > v[:, :-1], axis=1)]
        total += _det_sum(v, pos, m, u.wall, weight)
    return total


def _det_sum(v_batch, pos, m, wall, weight):
    n = len(pos)
    vb = v_batch[:, :, None]          # (B, i, 1)
    ub = pos[None, None, :]           # (1, 1, j)
    mat = weight(ub - vb)
    if wall:
        mat = mat - weight(ub + vb + 2)
    return float(np.linalg.det(mat).sum())


def scaled_survival(scale, t, u):
    """Exact lattice survival at diffusion time t against its scaling-limit prediction.

    Returns (survival, prediction, ratio) where the prediction is
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
    n = len(u)
    support_size = (m + 1) ** n
    if m <= EXACT_STEP_CAP and support_size <= EXACT_SUPPORT_CAP:
        exact = float(survival_probability(m, u))
    else:
        warnings.warn(
            "survival sum over %d^%d endpoints exceeds the exact budget; "
            "falling back to float determinants (signed cancellation may cost digits)"
            % (m + 1, n)
        )
        exact = _survival_float(m, u)
    x = np.asarray(u.positions, dtype=float) / (scale * math.sqrt(t))
    consts = constants(n)
    if u.wall:
        pred = h_hat_poly(x) / consts.c_tilde
    else:
        pred = h_poly(x) / consts.c_bar
    return exact, pred, exact / pred if pred != 0 else math.inf
