"""Stochastic engines for the nonintersecting walk and diffusion families.

Rejection-conditioned lattice walkers; the two-matrix process, which draws
every origin law and the finite-horizon (g) paths from the origin exactly
at every recorded time; Euler-Maruyama integration of the conditioned SDEs
from interior starts and of the h-transform (p) family (free and wall
variants); Brownian non-collision estimates; and endpoint extraction for
the statistics harness.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import LatticeConfig, time_lattice
from .densities import ModelSpec, _check_chamber, drift_batch

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "simulate_walkers",
    "simulate_sde",
    "noncollision_mc",
    "endpoint_values",
    "sample_origin_law",
]

ACCEPTANCE_FLOOR = 1e-6
HALVING_BUDGET = 20
HORIZON_GUARD = 1e-4      # g-family integration stops at T * (1 - guard)
MAX_GRID_COLUMNS = 65
ROUND_ENTRIES = 1 << 21   # step entries drawn per round, walkers and Brownian tuples
MATRIX_ENTRIES = ROUND_ENTRIES // 16   # eigensolve entries per block of origin g paths


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run.

    model: "walker", "sde-g" (finite horizon), or "sde-p" (h-transform).
    start: LatticeConfig for walkers; an interior configuration or None
    (degenerate origin start) for the SDE modes.  sde-g origin starts are
    exact at every recorded time, and step sets only their time grid;
    sde-p origin starts begin with an exact draw at t0 = step, and every
    other SDE run is Euler-Maruyama with step as its step.  t_end applies
    to the SDE modes only; the g-family default is the guarded horizon.
    step and t_end must be finite.
    """

    model: str
    spec: ModelSpec
    start: object = None
    scale: int = 1
    step: float = 1e-3
    t_end: float = None
    samples: int = 1000
    seed: int = 0
    streams: int = 1

    def __post_init__(self):
        if self.model not in ("walker", "sde-g", "sde-p"):
            raise ValueError("unknown model %r" % (self.model,))
        if self.samples < 1 or self.streams < 1 or self.scale < 1:
            raise ValueError("need samples >= 1, streams >= 1, scale >= 1")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be positive and finite, got %r" % (self.step,))
        if self.t_end is not None and not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite, got %r" % (self.t_end,))
        if self.model == "walker":
            if not isinstance(self.start, LatticeConfig):
                raise ValueError("walker mode requires a LatticeConfig start")
            if not math.isfinite(self.spec.horizon):
                raise ValueError("walker mode requires a finite horizon")
        if self.model == "sde-g" and not math.isfinite(self.spec.horizon):
            raise ValueError("sde-g requires a finite horizon")
        if self.model == "sde-p" and math.isfinite(self.spec.horizon):
            raise ValueError("sde-p requires an infinite horizon")

    def digest(self):
        start = self.start
        if isinstance(start, LatticeConfig):
            start_repr = ("lattice", start.positions, start.wall)
        elif start is None:
            start_repr = "origin"
        else:
            start_repr = tuple(float(v) for v in np.asarray(start).ravel())
        payload = repr((self.model, self.spec.n_walkers, self.spec.horizon,
                        self.spec.wall, start_repr, self.scale, self.step,
                        self.t_end, self.samples, self.seed, self.streams))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class PathEnsemble:
    time_grid: np.ndarray       # (n_grid,)
    paths: np.ndarray           # (samples, N, n_grid)
    accepted: int
    proposed: int
    config_digest: str

    def __post_init__(self):
        if self.accepted > self.proposed:
            raise ValueError("accepted cannot exceed proposed")
        if np.any(np.diff(self.time_grid) <= 0):
            raise ValueError("time grid must be strictly increasing")


def _philox(seed, stream):
    """Philox generator keyed by (seed mod 2^64, stream): every seeded draw in the package.

    The key is built as uint64, so seeds at or above 2^63 stay exact.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_quotas(samples, streams):
    base, extra = divmod(samples, streams)
    return [base + (1 if s < extra else 0) for s in range(streams)]


def _grid_columns(m):
    """Indices of recorded lattice/SDE steps: at most MAX_GRID_COLUMNS, always 0 and m."""
    if m + 1 <= MAX_GRID_COLUMNS:
        return np.arange(m + 1)
    idx = np.unique(np.round(np.linspace(0, m, MAX_GRID_COLUMNS)).astype(int))
    return idx


# ---------------------------------------------------------------------------
# Lattice walkers (their round-based engine also runs the non-collision oracle)


def _walker_steps(rng, size):
    return 2 * rng.integers(0, 2, size=size, dtype=np.int8) - 1


def _advance_block(rng, pos0, m, cols, batch, wall, draw, weight=None):
    """Survivors of `batch` proposals over m steps, at the steps in cols, and their weights.

    draw(rng, size) gives the steps: int8 +-1 for walkers (_walker_steps),
    Gaussian increments for Brownian tuples.  Proposals advance in rounds
    of k = max(t, 8) steps from the time t reached, at most ROUND_ENTRIES
    step entries per round.  Rows that break strict order (or go below 0
    behind the wall) at any step of a round are dropped at its end, so a
    proposal draws about twice its lifetime in steps.  weight(start, path)
    gives each surviving row's weight over the round, from its positions
    before the round (rows, n) and at the round's steps (rows, k, n); a row
    of weight 0 is dropped too.  A hook builds one n x n matrix per
    row-step, so with one the cap counts n^2 entries per step.  Callers
    keep batch times those entries <= ROUND_ENTRIES, so every round
    advances.  Returns positions in the dtype of pos0, shape (survivors,
    len(cols), n), and the survivors' weight products (all 1 without a hook).
    """
    n = len(pos0)
    width = n if weight is None else n * n     # entries per row-step
    rec = np.empty((batch, len(cols), n), dtype=pos0.dtype)
    rec[:, 0] = pos0
    rows = np.arange(batch)             # rec row of each live proposal
    w = np.ones(batch)                  # weight product of each live proposal
    pos = np.broadcast_to(pos0, (batch, n))
    t, c = 0, 1                         # time reached, next column to record
    while t < m and len(rows):
        k = min(max(t, 8), m - t, ROUND_ENTRIES // (len(rows) * width))
        path = draw(rng, (len(rows), k, n)).astype(pos0.dtype, copy=False)
        np.cumsum(path, axis=1, out=path)
        path += pos[:, None, :]
        ok = np.all(path[:, :, 1:] > path[:, :, :-1], axis=(1, 2))
        if wall:
            ok &= np.all(path[:, :, 0] >= 0, axis=1)
        live = np.flatnonzero(ok)
        w = w[live]
        if weight is not None:
            w *= weight(pos[live], path[live])
            keep = w > 0
            live, w = live[keep], w[keep]
        rows = rows[live]
        c_end = np.searchsorted(cols, t + k, side="right")
        rec[rows, c:c_end] = path[live[:, None], cols[c:c_end] - t - 1]
        pos = path[live, -1]
        del path                        # freed before the next round's draw
        t, c = t + k, c_end
    return rec[rows], w


def simulate_walkers(cfg):
    """Rejection sampling of nonintersecting +-1 walk tuples.

    N independent simple walks over m = 2*floor(scale^2*horizon/2) steps;
    realizations breaking strict order (or wall nonnegativity) at any step
    are discarded.  Proposals advance in blocks, round by round, with round
    lengths doubling in the time reached, and each is dropped at the end of
    the round holding its first violation (early kill), so the law is the
    same as checking whole paths.  ROUND_ENTRIES caps the step entries
    drawn per round and the recorded entries per block, so memory does not
    grow with samples, m or the acceptance rate.  Paths are
    returned in diffusion scaling, position/scale against time
    step/scale^2, on a uniform subgrid.  Every survivor of a block counts
    as accepted, so accepted/proposed is an unbiased survival estimate.
    """
    if cfg.model != "walker":
        raise ValueError("simulate_walkers requires walker mode")
    u = cfg.start
    n = len(u)
    L = cfg.scale
    m = time_lattice(L, cfg.spec.horizon)
    if m < 1:
        raise ValueError("horizon too short for this scale: zero lattice steps")
    cols = _grid_columns(m)
    # a walker stays within max|u| + m of 0, so int32 holds it unless that reaches 2^31
    wide = max(abs(p) for p in u.positions) + m >= 2 ** 31
    pos0 = np.asarray(u.positions, dtype=np.int64 if wide else np.int32)
    block_cap = max(ROUND_ENTRIES // (n * max(len(cols), 8)), 1)

    paths = np.empty((cfg.samples, n, len(cols)))
    got = 0
    accepted = 0
    proposed = 0
    for s, quota in enumerate(_stream_quotas(cfg.samples, cfg.streams)):
        rng = _philox(cfg.seed, s)
        batch = min(max(4 * quota, 1024), block_cap)
        stop = got + quota
        while got < stop:
            good, _ = _advance_block(rng, pos0, m, cols, batch, u.wall, _walker_steps)
            proposed += batch
            accepted += len(good)
            take = min(len(good), stop - got)
            paths[got:got + take] = good[:take].transpose(0, 2, 1) / L
            got += take
            if proposed >= 1_000_000 and accepted / proposed < ACCEPTANCE_FLOOR:
                raise RuntimeError(
                    "walker acceptance below %g after %d proposals; "
                    "reduce the scale or walker count" % (ACCEPTANCE_FLOOR, proposed)
                )
    grid = cols / float(L * L)
    return PathEnsemble(time_grid=grid, paths=paths, accepted=accepted,
                        proposed=proposed, config_digest=cfg.digest())


# ---------------------------------------------------------------------------
# The two-matrix process: exact origin laws and origin-start g paths
#
# One builder draws every origin law, free or behind the wall, at any
# horizon, and the g family's paths from the origin: one eigensolve per
# recorded time and no rejection.  Its one-column case also serves
# rmt.sample_ensemble.


def _two_matrix_spectra(rng, n, steps, draws, wall=False, out=None):
    """Ascending spectra of a two-matrix process after each step, shape (draws, n, len(steps)).

    The process starts at the zero matrix.  Step (keep, gue_var, goe_var)
    scales its imaginary part by keep, adds GUE(gue_var) + GOE(goe_var)
    and records the spectrum, in out if given.  Under the trace weight
    exp{-Tr H^2 / (2 sigma^2)} the real symmetric part has diagonal
    variance sigma^2 and off-diagonal sigma^2/2; the Hermitian part has
    real and imaginary off-diagonal parts of variance sigma^2/2 each.  The
    GUE part is drawn first; a zero variance draws nothing, so GOE alone
    from the zero matrix takes the real eigensolver.

    wall=True draws the class C matrix H = [[A, B], [B^H, -A^T]] of size 2n
    (Altland-Zirnbauer), A Hermitian and B complex symmetric, under
    exp{-Tr H^2 / (4 sigma^2)}, with the same variances as above: real parts
    gue_var + goe_var, imaginary parts gue_var.  Its n positive eigenvalues
    are recorded.  Without imaginary part it is class CI.
    """
    blocks = 2 if wall else 1
    size = (draws, blocks, n, n)
    # A = (g + g^H)/2 and B = (g + g^T)/2: the transpose flips the sign of
    # the imaginary part in A only
    conj = np.array([-1.0, 1.0][:blocks])[:, None, None]
    if out is None:
        out = np.empty((draws, n, len(steps)))
    mats = 0.0
    for c, (keep, gue_var, goe_var) in enumerate(steps):
        if np.iscomplexobj(mats):
            mats.imag *= keep
        if gue_var > 0:
            x = rng.normal(scale=math.sqrt(gue_var), size=size)
            y = rng.normal(scale=math.sqrt(gue_var), size=size)
            mats = mats + (x + 1j * y + np.swapaxes(x + 1j * (conj * y), 2, 3)) / 2.0
        if goe_var > 0:
            g = rng.normal(scale=math.sqrt(goe_var), size=size)
            mats = mats + (g + np.swapaxes(g, 2, 3)) / 2.0
        if wall:
            a, b = mats[:, 0], mats[:, 1]
            h = np.block([[a, b], [np.conj(np.swapaxes(b, 1, 2)), -np.swapaxes(a, 1, 2)]])
            out[..., c] = np.linalg.eigvalsh(h)[:, n:]
        else:
            out[..., c] = np.linalg.eigvalsh(mats[:, 0])
    return out


def _bridge_steps(times, horizon):
    """Steps of _two_matrix_spectra from 0 through the increasing times: the g family's process.

    Real parts are a matrix Brownian motion and imaginary parts a Brownian
    bridge pinned to 0 at the horizon T, of variances t and t (T - t) / T
    at time t.  Over [s, t], with d = t - s and r = T - s, the bridge keeps
    1 - d / r of its value and GUE(d (1 - d / r)) + GOE(d^2 / r) is added:
    real parts gain variance d, and imaginary parts end at variance
    t (T - t) / T.  From s = 0 this is sample_origin_law's draw at t,
    GUE(t (1 - t / T)) + GOE(t t / T), operation for operation.
    """
    steps, s = [], 0.0
    for t in times:
        d, r = t - s, horizon - s
        keep = 1 - d / r
        steps.append((keep, d * keep, d * d / r))
        s = t
    return steps


def sample_origin_law(spec, t, samples, rng):
    """Exact draws from the origin-start transition density at time t.

    One two-matrix spectrum per draw, no rejection, at any horizon: real
    parts of variance t, imaginary parts of variance t (T-t)/T.  Free
    walkers: GUE(t (T-t)/T) + GOE(t^2/T), so GUE(t) at T = inf and GOE(T) at
    t = T.  Behind the wall: the positive half of the class C spectrum, so
    class C(t) at T = inf and class CI(T) at t = T.
    """
    if not (0 < t <= spec.horizon):
        raise ValueError("need 0 < t <= horizon")
    return _two_matrix_spectra(rng, spec.n_walkers, _bridge_steps([t], spec.horizon),
                               samples, spec.wall)[..., 0]


# ---------------------------------------------------------------------------
# SDE paths


def _sde_grid(model, horizon, step, t_end, origin):
    """(times, cols) of an SDE run: its time grid and the indices of its recorded times.

    Origin starts begin at t0 = min(1e-3 * horizon, step), interior starts
    at 0.  The g family ends by default at horizon * (1 - HORIZON_GUARD),
    where its drift blows up, and may not end later; the p family ends by
    default at 1.  The grid has ceil((t_end - t0) / step) uniform steps,
    and cols = _grid_columns of that count.  An end time that is not finite
    or not in (t0, the guarded horizon] raises ValueError.
    """
    hi = horizon * (1.0 - HORIZON_GUARD)
    if t_end is None:
        t_end = hi if model == "sde-g" else 1.0
    t0 = min(1e-3 * horizon, step) if origin else 0.0
    if not (t0 < t_end <= hi + 1e-12 and math.isfinite(t_end)):
        raise ValueError("end time must be finite and in (%r, %r], got %r" % (t0, hi, t_end))
    n_steps = max(int(math.ceil((t_end - t0) / step)), 1)
    times = t0 + (t_end - t0) * np.arange(n_steps + 1) / n_steps
    return times, _grid_columns(n_steps)


def _em_advance(spec, x, t, dt, rng, depth=HALVING_BUDGET):
    """One Euler-Maruyama step over [t, t+dt] for every row of x.

    Rows whose proposal leaves the chamber are re-advanced over two halved
    substeps (fresh Gaussian increments) down to the halving budget.
    """
    b = drift_batch(spec, t, x)
    prop = x + b * dt + rng.normal(scale=math.sqrt(dt), size=x.shape)
    ok = np.all(prop[:, 1:] > prop[:, :-1], axis=1)
    if spec.wall:
        ok &= prop[:, 0] > 0
    if np.all(ok):
        return prop
    if depth <= 0:
        raise RuntimeError("halving budget exhausted near t = %g" % t)
    bad = ~ok
    half = _em_advance(spec, x[bad], t, dt / 2, rng, depth - 1)
    prop[bad] = _em_advance(spec, half, t + dt / 2, dt / 2, rng, depth - 1)
    return prop


def simulate_sde(cfg):
    """Paths of the conditioned diffusion at the recorded times of its grid (_sde_grid).

    g-family origin starts are exact at every recorded time: the eigenvalue
    path (the positive half behind the wall) of the g family's matrix
    process (_bridge_steps), one eigensolve per recorded time, so step sets
    only the grid.  They advance in blocks of at most MATRIX_ENTRIES
    eigensolve entries, written straight into the output, so memory beyond
    the output does not grow with samples.  Every other run is
    Euler-Maruyama over the grid's steps, with halving (_em_advance): from
    the start, or for p-family origin starts from an exact draw of the
    origin law at t0 = step.  Strict ordering (and wall positivity) holds
    at every recorded time.
    """
    if cfg.model not in ("sde-g", "sde-p"):
        raise ValueError("simulate_sde requires an SDE mode")
    spec = cfg.spec
    n, T = spec.n_walkers, spec.horizon
    origin = cfg.start is None
    if not origin:
        x0 = _check_chamber(cfg.start, spec.wall, "SDE start")
        if spec.wall and x0[0] == 0:
            raise ValueError("SDE start must be strictly interior: x_1 = 0 lies on the wall")
    times, cols = _sde_grid(cfg.model, T, cfg.step, cfg.t_end, origin)
    exact = origin and cfg.model == "sde-g"
    if exact:
        steps = _bridge_steps(times[cols], T)
        block = max(MATRIX_ENTRIES // (2 * n if spec.wall else n) ** 2, 1)

    paths = np.empty((cfg.samples, n, len(cols)))
    got = 0
    for s, quota in enumerate(_stream_quotas(cfg.samples, cfg.streams)):
        rng = _philox(cfg.seed, s)
        rows = paths[got:got + quota]
        got += quota
        if exact:
            for b in range(0, quota, block):
                k = min(block, quota - b)
                _two_matrix_spectra(rng, n, steps, k, spec.wall, out=rows[b:b + k])
        else:
            x = (sample_origin_law(spec, times[0], quota, rng) if origin
                 else np.broadcast_to(x0, (quota, n)).copy())
            rows[:, :, 0] = x
            ptr = 1
            for k in range(len(times) - 1):
                x = _em_advance(spec, x, times[k], times[k + 1] - times[k], rng)
                if cols[ptr] == k + 1:
                    rows[:, :, ptr] = x
                    ptr += 1
    assert np.all(paths[:, 1:, :] > paths[:, :-1, :]), "chamber order violated"
    if spec.wall:
        assert np.all(paths[:, 0, :] > 0), "wall positivity violated"
    return PathEnsemble(time_grid=times[cols], paths=paths, accepted=cfg.samples,
                        proposed=cfg.samples, config_digest=cfg.digest())


# ---------------------------------------------------------------------------
# Brownian non-collision oracle


def _bridge_factors(start, path, dt, wall):
    """Non-collision probabilities of Brownian bridges over each step of a round.

    start (rows, N) and path (rows, k, N) are strictly ordered chamber
    points.  Bridges from x to y over dt do not meet with probability
    det[k(x_i, y_j)] / prod_i p(x_i, y_i) (Karlin-McGregor), where p is the
    free heat kernel and k = p, or p(x, y) - p(x, -y) behind the wall.
    After the Gaussian factors cancel the ratio matrix is
    exp{(x_i (y_j - y_i) + S_i - S_j) / dt}, times 1 - exp(-2 x_i y_j / dt)
    behind the wall, with S_j = sum_{l<j} (x_l + x_{l+1}) / 2 (y_{l+1} - y_l).
    The S terms are a diagonal similarity, so the determinant is unchanged,
    and the exponent, a sum of (x_i - (x_l + x_{l+1}) / 2) (y_{l+1} - y_l)
    over l between i and j, is never positive: no entry overflows.
    Returns the (rows, k) factors, clipped to [0, 1] against rounding.
    """
    n = start.shape[-1]
    x = np.concatenate([start[:, None], path[:, :-1]], axis=1)
    mid = (x[..., :-1] + x[..., 1:]) / 2
    terms = x[..., :, None] - mid[..., None, :]
    terms *= np.diff(path)[..., None, :]
    expo = np.zeros(x.shape + (n,))
    np.cumsum(terms, axis=-1, out=expo[..., 1:])
    del terms
    expo -= np.diagonal(expo, axis1=-2, axis2=-1)[..., :, None].copy()
    expo /= dt
    ratio = np.exp(expo, out=expo)
    if wall:
        ratio *= -np.expm1(x[..., :, None] * path[..., None, :] * (-2 / dt))
    return np.clip(np.linalg.det(ratio), 0.0, 1.0)


def noncollision_mc(t, x, samples=100_000, step=1e-3, wall=False, seed=0):
    """Monte Carlo estimate of the strict-order (non-collision) probability.

    Brownian tuples on a grid of step at most `step`; returns (estimate,
    standard_error).  Each tuple is weighted by the product over its steps
    of the probability that Brownian bridges between its grid values do
    not meet (_bridge_factors), and a grid value outside the chamber
    weighs 0, so the mean weight is unbiased at any step.  Tuples run on
    the walker engine (_advance_block) with Gaussian steps and the bridge
    weight hook, in blocks of at most ROUND_ENTRIES // N^2 tuples: a tuple
    is dropped in the round its weight reaches 0, and memory stays bounded
    whatever samples and t are.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n == 0 or samples < 1 or not step > 0 or not 0 <= t < math.inf:
        raise ValueError("need a nonempty start, samples >= 1, step > 0 and finite t >= 0")
    x = _check_chamber(x, wall, "start x")
    if wall and x[0] == 0:
        raise ValueError("start x must be strictly interior: x_1 = 0 lies on the wall")
    if t == 0:
        return 1.0, 1.0 / samples           # an interior start has not collided yet
    n_steps = max(int(math.ceil(t / step)), 1)
    dt = t / n_steps
    gauss = lambda rng, size: rng.normal(scale=math.sqrt(dt), size=size)
    bridge = lambda start, path: np.prod(_bridge_factors(start, path, dt, wall), axis=1)
    rng = _philox(seed, 0)
    block = ROUND_ENTRIES // (n * n)
    total = total_sq = 0.0
    for done in range(0, samples, block):
        b = min(block, samples - done)
        _, w = _advance_block(rng, x, n_steps, np.array([0]), b, wall, gauss, bridge)
        total += w.sum()
        total_sq += w @ w
    p = total / samples
    se = math.sqrt(max(total_sq / samples - p * p, 1.0 / samples) / samples)
    return p, se


def endpoint_values(ens, coordinate):
    """Endpoint values of one coordinate across an ensemble."""
    if ens.paths.shape[0] == 0:
        raise ValueError("empty ensemble")
    return ens.paths[:, coordinate, -1]
