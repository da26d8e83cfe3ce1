import functools
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from viciouskit.combinatorics import LatticeConfig, count_paths, survival_probability
from viciouskit.densities import (ModelSpec, coordinate_cdf, g_density, survival,
                                  survival_batch)
from viciouskit.harness import ks_test, ks_two_sample
from viciouskit.montecarlo import (PathEnsemble, SimConfig, _bridge_factors, _philox,
                                   _two_matrix_spectra, endpoint_values, noncollision_mc,
                                   sample_origin_law, simulate_sde, simulate_walkers)
from viciouskit.rmt import sample_ensemble


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig("nope", ModelSpec(2))
    with pytest.raises(ValueError):
        SimConfig("walker", ModelSpec(2))                       # no lattice start
    with pytest.raises(ValueError):
        SimConfig("walker", ModelSpec(2), start=LatticeConfig((0, 2)))  # inf horizon
    with pytest.raises(ValueError):
        SimConfig("sde-p", ModelSpec(2, horizon=1.0))
    cfg = SimConfig("sde-p", ModelSpec(2), samples=10)
    assert cfg.digest() == SimConfig("sde-p", ModelSpec(2), samples=10).digest()
    assert cfg.digest() != SimConfig("sde-p", ModelSpec(2), samples=11).digest()


def test_single_walker_always_accepted():
    cfg = SimConfig("walker", ModelSpec(1, horizon=1.0),
                    start=LatticeConfig((0,)), scale=4, samples=200, seed=0)
    ens = simulate_walkers(cfg)
    assert ens.accepted == ens.proposed
    assert ens.paths.shape[0] == 200


def test_walker_acceptance_matches_exact_survival():
    # N=2, m=2: exact survival 10/16
    cfg = SimConfig("walker", ModelSpec(2, horizon=2.0),
                    start=LatticeConfig((0, 2)), scale=1, samples=3000, seed=5)
    ens = simulate_walkers(cfg)
    p = 10.0 / 16.0
    se = math.sqrt(p * (1 - p) / ens.proposed)
    assert abs(ens.accepted / ens.proposed - p) < 3 * se


def test_walker_acceptance_matches_exact_survival_wall():
    u = LatticeConfig((0, 2), wall=True)
    cfg = SimConfig("walker", ModelSpec(2, horizon=2.0, wall=True),
                    start=u, scale=1, samples=3000, seed=5)
    ens = simulate_walkers(cfg)
    p = float(survival_probability(2, u))
    se = math.sqrt(p * (1 - p) / ens.proposed)
    assert abs(ens.accepted / ens.proposed - p) < 3 * se


def test_walker_paths_ordered_and_scaled():
    cfg = SimConfig("walker", ModelSpec(2, horizon=1.0),
                    start=LatticeConfig((0, 2)), scale=4, samples=100, seed=1)
    ens = simulate_walkers(cfg)
    assert np.all(ens.paths[:, 1, :] > ens.paths[:, 0, :])
    assert ens.time_grid[0] == 0.0
    assert ens.time_grid[-1] == pytest.approx(1.0)
    np.testing.assert_allclose(ens.paths[:, :, 0], np.tile([0.0, 0.5], (100, 1)))


def test_walker_determinism_across_streams():
    def run(streams):
        cfg = SimConfig("walker", ModelSpec(2, horizon=1.0),
                        start=LatticeConfig((0, 2)), scale=2, samples=64,
                        seed=9, streams=streams)
        return simulate_walkers(cfg)

    a, b = run(4), run(4)
    np.testing.assert_array_equal(a.paths, b.paths)
    assert a.accepted == b.accepted and a.proposed == b.proposed


def test_walker_positions_past_int32_are_exact():
    # max|u| + m >= 2^31 takes int64 positions; the draws are those of the int32
    # run from (0, 2), so the paths are its paths shifted by 2^31 / L
    def run(start):
        return simulate_walkers(SimConfig("walker", ModelSpec(2, horizon=1.0),
                                          start=LatticeConfig(start), scale=8, samples=50,
                                          seed=3))

    a, b = run((0, 2)), run((2 ** 31, 2 ** 31 + 2))
    np.testing.assert_array_equal(b.time_grid, a.time_grid)
    np.testing.assert_array_equal(b.paths - 2 ** 31 / 8, a.paths)
    assert (b.accepted, b.proposed) == (a.accepted, a.proposed)


def test_walker_stream_with_zero_quota():
    # 2 samples over 3 streams: the third stream's quota is 0, so it draws
    # nothing and the run equals the two-stream run
    def run(streams):
        return simulate_walkers(SimConfig("walker", ModelSpec(2, horizon=1.0),
                                          start=LatticeConfig((0, 2)), scale=4,
                                          samples=2, streams=streams))

    a, b = run(3), run(2)
    assert a.paths.shape[0] == 2
    np.testing.assert_array_equal(a.paths, b.paths)
    assert (a.accepted, a.proposed) == (b.accepted, b.proposed)


@pytest.mark.parametrize("wall", [False, True])
def test_walker_endpoint_law_is_exact_across_rounds(wall):
    # m = 40 steps span rounds of 8, 8, 16 and 8 steps; the accepted
    # endpoints must follow the exact conditioned law count(v) / sum count
    m = 40
    u = LatticeConfig((0, 2), wall=wall)
    ens = simulate_walkers(SimConfig("walker", ModelSpec(2, horizon=float(m), wall=wall),
                                     start=u, scale=1, samples=4000, seed=17))
    assert ens.time_grid[-1] == m
    support = [(a, b) for a in range(-m, m + 1, 2) for b in range(2 - m, m + 3, 2)
               if a < b and (not wall or a >= 0)]
    counts = [count_paths(m, u, v).value for v in support]
    assert sum(counts) == survival_probability(m, u) * 4 ** m
    counts = np.array(counts, dtype=float)
    index = {v: i for i, v in enumerate(support)}
    observed = np.zeros(len(support))
    for row in np.rint(ens.paths[:, :, -1]).astype(int):
        observed[index[tuple(row)]] += 1
    expected = len(ens.paths) * counts / counts.sum()
    big = expected >= 5                 # pool the small cells into one
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    assert sps.chisquare(obs, exp).pvalue > 1e-3


@pytest.mark.parametrize("wall", [False, True])
def test_walker_recorded_columns_are_single_steps(wall):
    # m + 1 = 65 columns: every lattice step is recorded, across the round
    # boundaries at 8, 16 and 32, so each column moves each walker by 1/L
    L = 4
    ens = simulate_walkers(SimConfig("walker", ModelSpec(2, horizon=4.0, wall=wall),
                                     start=LatticeConfig((0, 2), wall=wall), scale=L,
                                     samples=300, seed=8))
    assert len(ens.time_grid) == 65
    np.testing.assert_array_equal(np.abs(np.diff(ens.paths, axis=2)) * L, 1.0)


@pytest.mark.parametrize("n, scale", [(2, 32), (1, 64)])
def test_walker_memory_is_bounded(n, scale):
    # free N=2 accepts about 3.5% of proposals at L=32; N=1 accepts all of
    # them over 4096 steps
    cfg = SimConfig("walker", ModelSpec(n, horizon=1.0),
                    start=LatticeConfig(tuple(range(0, 2 * n, 2))), scale=scale,
                    samples=2000, seed=0)
    tracemalloc.start()
    try:
        ens = simulate_walkers(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.paths.shape[0] == 2000
    assert peak < 64 * 2 ** 20


def test_pathensemble_invariants():
    with pytest.raises(ValueError):
        PathEnsemble(np.array([0.0, 1.0]), np.zeros((1, 1, 2)), accepted=2,
                     proposed=1, config_digest="x")
    with pytest.raises(ValueError):
        PathEnsemble(np.array([1.0, 1.0]), np.zeros((1, 1, 2)), accepted=1,
                     proposed=1, config_digest="x")


def test_origin_law_gue_moments():
    # free p-family endpoint: trace second moment of GUE(t) spectra is exact
    rng = np.random.Generator(np.random.Philox(key=[2, 0]))
    y = sample_origin_law(ModelSpec(2), 0.5, 4000, rng)
    # E sum y_i^2 = t * N^2 for the Hermitian ensemble
    m2 = (y ** 2).sum(axis=1).mean()
    se = (y ** 2).sum(axis=1).std() / math.sqrt(len(y))
    assert abs(m2 - 0.5 * 4) < 4 * se


def test_origin_law_wall_single_walker_is_bessel_law():
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    y = sample_origin_law(ModelSpec(1, wall=True), 0.7, 3000, rng)[:, 0]
    d = sps.kstest(y / math.sqrt(0.7), sps.chi(3).cdf).statistic
    assert d < 1.63 / math.sqrt(3000)


@pytest.mark.parametrize("wall", [False, True])
def test_origin_law_finite_horizon_branches_agree(wall):
    # the origin law is continuous in t: draws at t = 0.499 and t = 0.501,
    # each one two-matrix spectrum (class C behind the wall), must agree
    spec = ModelSpec(2, horizon=1.0, wall=wall)
    rng1 = np.random.Generator(np.random.Philox(key=[4, 0]))
    rng2 = np.random.Generator(np.random.Philox(key=[5, 0]))
    a = sample_origin_law(spec, 0.499, 4000, rng1)
    b = sample_origin_law(spec, 0.501, 4000, rng2)
    for k in (0, 1):
        d = sps.ks_2samp(a[:, k], b[:, k]).statistic
        # laws at t=0.499 and t=0.501 differ by O(dt); generous threshold
        assert d < 2.0 * 1.63 * math.sqrt(2 / 4000)


def _exact_law_ks(spec, t, y, level):
    """One KS report per coordinate of the draws y against the exact origin law at t.

    The law is tabulated on 4001 points and interpolated: linear
    interpolation between exact values is within 2e-5 of it, far inside the
    KS critical value.
    """
    hi = (math.sqrt(8 * spec.n_walkers) + 8) * math.sqrt(t)
    grid = np.linspace(0.0 if spec.wall else -hi, hi, 4001)
    table = coordinate_cdf(spec, t, grid)
    return [ks_test(y[:, k], lambda v, k=k: np.interp(v, grid, table[:, k]), level=level)
            for k in range(spec.n_walkers)]


@pytest.mark.parametrize("n, t", [(2, 0.1), (2, 0.5), (2, 0.9), (3, 0.5)])
def test_free_origin_law_matches_g_density(n, t):
    # two-matrix draws against the exact coordinate laws of the origin-start
    # finite-horizon density; Bonferroni over the 9 coordinates of the 4 cases
    spec = ModelSpec(n, horizon=1.0)
    y = sample_origin_law(spec, t, 100_000, _philox(20 + n, int(10 * t)))
    for rep in _exact_law_ks(spec, t, y, 0.01 / 9):
        assert rep.verdict == "pass", (rep.statistic, rep.critical_value)


@pytest.mark.parametrize("t", [0.25, 0.75])
def test_wall_origin_law_matches_g_density(t):
    # class C draws before and after T/2 against the exact coordinate laws of
    # the origin-start finite-horizon density; Bonferroni over the 4
    # coordinates of the 2 cases
    spec = ModelSpec(2, horizon=1.0, wall=True)
    y = sample_origin_law(spec, t, 20_000, _philox(31, int(100 * t)))
    for rep in _exact_law_ks(spec, t, y, 0.01 / 4):
        assert rep.verdict == "pass", (rep.statistic, rep.critical_value)


@pytest.mark.parametrize("t, T, n", [(0.3, 1.0, n) for n in range(1, 7)]
                         + [(1.0, 1.0, n) for n in range(1, 7)]
                         + [(0.7, math.inf, n) for n in range(1, 7)])
def test_wall_origin_law_matches_density(t, T, n):
    # class C draws, class CI at t = T, against the exact coordinate laws;
    # Bonferroni over the 63 coordinates of the 18 cases
    spec = ModelSpec(n, horizon=T, wall=True)
    y = sample_origin_law(spec, t, 20_000, _philox(50 + n, int(10 * t)))
    for rep in _exact_law_ks(spec, t, y, 0.01 / 63):
        assert rep.verdict == "pass", (rep.statistic, rep.critical_value)


def test_wall_origin_law_n4_matches_thinned_class_ci():
    # reference: class CI draws at horizon t, law exp(-|y|^2/2t) h_hat(y),
    # kept with probability survival(T - t, y); that is the wall g law at t
    # exactly, and about 10% are kept.  Bonferroni over the 4 coordinates
    n, T, t = 4, 1.0, 0.75
    prop = sample_origin_law(ModelSpec(n, horizon=t, wall=True), t, 50_000, _philox(43, 0))
    keep = _philox(44, 0).random(len(prop)) < survival_batch(T - t, prop, True)
    ref = prop[keep]
    y = sample_origin_law(ModelSpec(n, horizon=T, wall=True), t, 5000, _philox(45, 0))
    for k in range(n):
        rep = ks_two_sample(y[:, k], ref[:, k], level=0.01 / 4)
        assert rep.verdict == "pass", (k, rep.statistic, rep.critical_value)


@pytest.mark.parametrize("n, t", [(5, 0.5), (6, 0.6)])
def test_wall_origin_law_has_no_acceptance_to_collapse(n, t):
    # large N near T/2: every requested draw comes back, with no acceptance rate
    y = sample_origin_law(ModelSpec(n, horizon=1.0, wall=True), t, 200, _philox(46, n))
    assert y.shape == (200, n)
    assert np.all(y[:, 0] > 0) and np.all(np.diff(y, axis=1) > 0)


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("t, T", [(0.5, 1.0), (1.0, 1.0), (0.5, math.inf)])
def test_origin_law_is_one_eigensolve_per_draw(wall, t, T, monkeypatch):
    # no rejection: one matrix per requested draw, real at t = T (GOE or
    # class CI), complex otherwise
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        solved.append((math.prod(a.shape[:-2]), np.iscomplexobj(a)))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    y = sample_origin_law(ModelSpec(3, horizon=T, wall=wall), t, 300, _philox(47, 0))
    assert y.shape == (300, 3)
    assert solved == [(300, t < T)]


@pytest.mark.parametrize("t", [0.5, 0.75])
def test_free_origin_law_n4_matches_thinned_goe(t):
    # reference: GOE(t) spectra kept with probability survival(T - t, y),
    # exact at any t because the g law is GOE(t) weighted by that survival;
    # Bonferroni over the 8 coordinates of the 2 cases
    n, T = 4, 1.0
    prop = sample_ensemble("GOE", n, variance=t, samples=50_000, seed=40).eigenvalues
    keep = _philox(41, 0).random(len(prop)) < survival_batch(T - t, prop)
    ref = prop[keep]
    y = sample_origin_law(ModelSpec(n, horizon=T), t, 5000, _philox(42, 0))
    for k in range(n):
        rep = ks_two_sample(y[:, k], ref[:, k], level=0.01 / 8)
        assert rep.verdict == "pass", (k, rep.statistic, rep.critical_value)


def test_free_origin_law_is_one_two_matrix_draw():
    # no rejection: the draw is GUE(t(T-t)/T) + GOE(t^2/T) spectra, bit for bit
    y = sample_origin_law(ModelSpec(5, horizon=1.0), 0.5, 2000, _philox(7, 0))
    ref = _two_matrix_spectra(_philox(7, 0), 5, [(1.0, 0.5 * (1 - 0.5), 0.25)], 2000)
    assert np.array_equal(y, ref[..., 0])


def test_philox_keys_are_exact_for_every_seed():
    # the seed enters the key mod 2^64 and as uint64: seeds near 2^64 once
    # went through float64 and all collapsed to one key
    draw = lambda seed: _philox(seed, 3).random(4)
    ref = np.random.Generator(np.random.Philox(key=[12345, 3])).random(4)
    assert np.array_equal(draw(12345), ref)
    assert np.array_equal(draw(-1), draw(2 ** 64 - 1))
    assert not np.array_equal(draw(2 ** 64 - 3), draw(2 ** 64 - 4))


def test_sde_endpoint_matches_exact_law():
    spec = ModelSpec(2)
    ens = simulate_sde(SimConfig("sde-p", spec, step=2e-3, t_end=1.0,
                                 samples=2000, seed=11, streams=2))
    rng = np.random.Generator(np.random.Philox(key=[6, 0]))
    ref = sample_origin_law(spec, 1.0, 2000, rng)
    for k in (0, 1):
        d = sps.ks_2samp(ens.paths[:, k, -1], ref[:, k]).statistic
        assert d < 1.63 * math.sqrt(2 / 2000)


def test_sde_bessel_endpoint():
    ens = simulate_sde(SimConfig("sde-p", ModelSpec(1, wall=True), step=1e-3,
                                 t_end=1.0, samples=2000, seed=12))
    d = sps.kstest(ens.paths[:, 0, -1], sps.chi(3).cdf).statistic
    assert d < 1.63 / math.sqrt(2000)


def test_sde_ordering_is_hard():
    ens = simulate_sde(SimConfig("sde-g", ModelSpec(2, horizon=1.0), step=1e-3,
                                 samples=300, seed=13))
    assert np.all(ens.paths[:, 1, :] > ens.paths[:, 0, :])
    assert ens.time_grid[-1] <= 1.0 * (1 - 1e-4) + 1e-12


@pytest.mark.parametrize("wall", [False, True])
def test_origin_g_column0_is_the_origin_law(wall):
    # each stream's first recorded column is sample_origin_law at t0, bit for bit
    spec = ModelSpec(3, horizon=2.0, wall=wall)
    ens = simulate_sde(SimConfig("sde-g", spec, step=0.05, samples=301, seed=23, streams=2))
    t0 = ens.time_grid[0]
    assert t0 == min(1e-3 * 2.0, 0.05)
    for s, (lo, hi) in enumerate([(0, 151), (151, 301)]):
        ref = sample_origin_law(spec, t0, hi - lo, _philox(23, s))
        assert np.array_equal(ens.paths[lo:hi, :, 0], ref)


@pytest.mark.parametrize("wall", [False, True])
def test_origin_g_runs_no_drift(wall, monkeypatch):
    # origin g paths come from the matrix process alone: no Euler step, no
    # drift, one eigensolve per path and recorded time
    import viciouskit.montecarlo as mc

    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        solved.append(math.prod(a.shape[:-2]))
        return eigvalsh(a)

    monkeypatch.setattr(mc, "_em_advance", None)
    monkeypatch.setattr(mc, "drift_batch", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    ens = simulate_sde(SimConfig("sde-g", ModelSpec(2, horizon=1.0, wall=wall), step=1e-3,
                                 samples=50, seed=24))
    assert ens.paths.shape == (50, 2, 65)
    assert solved == [50] * 65


TWO_TIME_CELL = 0.004


@functools.lru_cache(maxsize=1)
def _meander_two_time_cdf(t1, t2):
    """P(X(t1) <= a, X(t2) <= b) of the N=1 wall g law (T = 1) at a, b on the edges k h.

    Midpoint rule over cells of width h = TWO_TIME_CELL up to 5.6: the
    origin density at t1 times g_density's transition to t2.
    """
    spec = ModelSpec(1, horizon=1.0, wall=True)
    h = TWO_TIME_CELL
    y = (np.arange(1400) + 0.5) * h
    first = g_density(spec, 0.0, None, t1, y[:, None])
    joint = np.array([g_density(spec, t1, [v], t2, y[:, None]) for v in y]) * first[:, None]
    table = np.zeros((len(y) + 1, len(y) + 1))
    table[1:, 1:] = np.cumsum(np.cumsum(joint, axis=0), axis=1) * h * h
    return table


def _two_time_statistic(a, b, t1, t2):
    """sqrt(K) max |F_emp - F| over the 16 x 16 grid of the columns' quantiles at k / 17."""
    table, h = _meander_two_time_cdf(t1, t2), TWO_TIME_CELL
    levels = np.arange(1, 17) / 17
    ia = np.rint(np.quantile(a, levels) / h).astype(int)
    ib = np.rint(np.quantile(b, levels) / h).astype(int)
    emp = (a[:, None] <= ia * h).astype(float).T @ (b[:, None] <= ib * h) / len(a)
    return math.sqrt(len(a)) * np.abs(emp - table[np.ix_(ia, ib)]).max()


@pytest.mark.parametrize("case", ["wall_n1", "free_n2_gap"])
def test_origin_g_two_time_law(case):
    # the N=1 wall g process (the Brownian meander) and the gap of the free
    # N=2 g process over sqrt(2) (the same process) at two recorded times,
    # against the exact two-time law; bound fixed before the first run.  The
    # control pairs the same columns from different paths: right marginals,
    # independent times
    n, wall = (1, True) if case == "wall_n1" else (2, False)
    ens = simulate_sde(SimConfig("sde-g", ModelSpec(n, horizon=1.0, wall=wall), step=0.1,
                                 samples=100_000, seed=25))
    t1, t2 = ens.time_grid[4], ens.time_grid[8]
    assert abs(t1 - 0.4) < 1e-3 and abs(t2 - 0.8) < 1e-3
    x = ens.paths[:, 0] if wall else (ens.paths[:, 1] - ens.paths[:, 0]) / math.sqrt(2)
    assert _two_time_statistic(x[:, 4], x[:, 8], t1, t2) < 2.5
    shuffled = _philox(26, 0).permutation(x[:, 8])
    assert _two_time_statistic(x[:, 4], shuffled, t1, t2) > 2.5


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("wall", [False, True])
def test_origin_g_endpoint_matches_exact_law(n, wall):
    # the last recorded column against the exact coordinate laws at
    # t_end = 0.9; Bonferroni over the 18 coordinates of the 6 cases
    spec = ModelSpec(n, horizon=1.0, wall=wall)
    ens = simulate_sde(SimConfig("sde-g", spec, step=0.3, t_end=0.9, samples=20_000,
                                 seed=27 + n + 10 * wall))
    t = ens.time_grid[-1]
    assert t == pytest.approx(0.9, abs=1e-12)
    for rep in _exact_law_ks(spec, t, ens.paths[:, :, -1], 0.01 / 18):
        assert rep.verdict == "pass", (rep.statistic, rep.critical_value)


def test_origin_g_memory_beyond_output_is_bounded():
    # 100k paths behind the wall at N=2, two recorded times: in one block
    # they took 92 MiB beyond the output, in blocks 9.5 MiB
    cfg = SimConfig("sde-g", ModelSpec(2, horizon=1.0, wall=True), step=1.0,
                    samples=100_000, seed=28)
    tracemalloc.start()
    try:
        ens = simulate_sde(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.paths.shape == (100_000, 2, 2)
    assert peak - ens.paths.nbytes < 32 * 2 ** 20


@pytest.mark.parametrize("start", [(0.5, 1.0), (0.3, 0.8, 1.5)])
def test_sde_g_wall_interior_start_stays_in_the_chamber(start):
    # Euler with the finite-horizon drift behind the wall, up to the guarded
    # horizon where the drift blows up and steps are halved
    ens = simulate_sde(SimConfig("sde-g", ModelSpec(len(start), horizon=1.0, wall=True),
                                 start=np.array(start), step=1e-2, samples=50, seed=29))
    assert ens.time_grid[-1] == pytest.approx(1.0 - 1e-4)
    assert np.all(ens.paths[:, 1:, :] > ens.paths[:, :-1, :])
    assert np.all(ens.paths[:, 0, :] > 0)


def test_sde_g_wall_single_walker_endpoint_matches_density():
    # Euler from x0 = 0.5 to t = 0.5 against 1-D quadrature of g_density;
    # bound fixed before the first run
    spec = ModelSpec(1, horizon=1.0, wall=True)
    ens = simulate_sde(SimConfig("sde-g", spec, start=np.array([0.5]), step=1e-3,
                                 t_end=0.5, samples=4000, seed=30))
    h = 1e-3
    y = (np.arange(6000) + 0.5) * h
    cdf = np.append(0.0, np.cumsum(g_density(spec, 0.0, [0.5], 0.5, y[:, None])) * h)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)
    d = sps.kstest(ens.paths[:, 0, -1], lambda v: np.interp(v, np.arange(6001) * h, cdf)).statistic
    assert d < 1.63 / math.sqrt(4000)


def test_sde_g_near_collision_start_beyond_three_walkers():
    cfg = SimConfig("sde-g", ModelSpec(4, horizon=1.0), start=np.array([0.0, 1.0, 1.0 + 1e-6, 3.0]),
                    t_end=0.1, step=1e-2, samples=20, seed=3)
    ens = simulate_sde(cfg)
    assert np.all(np.isfinite(ens.paths))
    assert np.all(ens.paths[:, 1:, :] > ens.paths[:, :-1, :])


def test_sde_interior_start_brownian_variance():
    # single free walker: pure Brownian motion
    ens = simulate_sde(SimConfig("sde-p", ModelSpec(1), start=np.array([0.0]),
                                 step=1e-2, t_end=1.0, samples=4000, seed=14))
    end = ens.paths[:, 0, -1]
    var = end.var()
    assert abs(var - 1.0) < 4 * math.sqrt(2.0 / len(end))   # var of sample variance


def test_sde_determinism():
    cfg = SimConfig("sde-p", ModelSpec(2), step=5e-3, t_end=0.5, samples=50,
                    seed=21, streams=3)
    a, b = simulate_sde(cfg), simulate_sde(cfg)
    np.testing.assert_array_equal(a.paths, b.paths)


@pytest.mark.parametrize("call, name", [
    (lambda: survival(1.0, [math.nan, 1.0]), "x must be finite"),
    (lambda: simulate_sde(SimConfig("sde-g", ModelSpec(2, horizon=1.0),
                                    start=np.array([math.nan, 1.0]), samples=2)),
     "SDE start must be finite"),
    (lambda: simulate_sde(SimConfig("sde-p", ModelSpec(2), start=np.array([0.0, math.inf]),
                                    samples=2)),
     "SDE start must be finite"),
    (lambda: noncollision_mc(1.0, [math.nan, 1.0]), "start x must be finite"),
    (lambda: SimConfig("sde-p", ModelSpec(2), step=math.nan), "step must be positive and finite"),
    (lambda: SimConfig("sde-p", ModelSpec(2), t_end=math.nan), "t_end must be finite"),
    (lambda: SimConfig("sde-p", ModelSpec(2), t_end=math.inf), "t_end must be finite"),
])
def test_non_finite_inputs_are_named(call, name):
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("start, rule", [((1.0, 1.0), "strictly increasing"),
                                         ((-0.5, 1.0), "nonnegative behind the wall"),
                                         ((0.0, 1.0), "strictly interior")])
def test_wall_starts_follow_the_chamber_rules(start, rule):
    # both engines check a start as densities does, and behind the wall also x_1 > 0
    with pytest.raises(ValueError, match="SDE start must be " + rule):
        simulate_sde(SimConfig("sde-g", ModelSpec(2, horizon=1.0, wall=True),
                               start=np.array(start), samples=2))
    with pytest.raises(ValueError, match="start x must be " + rule):
        noncollision_mc(1.0, start, wall=True)


def test_noncollision_trivial_and_exact():
    p, se = noncollision_mc(1.0, (0.0,), samples=500, step=0.05, seed=0)
    assert p == 1.0
    p2, se2 = noncollision_mc(1.0, (0.0, 1.0), samples=20000, step=0.1, seed=1)
    exact = survival(1.0, np.array([0.0, 1.0]))
    assert abs(p2 - exact) < 3 * se2


def test_noncollision_requires_interior_wall_start():
    # survival from a start on the wall is 0; the walk must start inside
    with pytest.raises(ValueError):
        noncollision_mc(1.0, (0.0, 1.0), samples=1000, step=1e-2, wall=True)


def test_noncollision_rejects_bad_inputs():
    for kwargs in ({"samples": 0}, {"step": 0.0}, {"step": -1e-3}):
        with pytest.raises(ValueError):
            noncollision_mc(1.0, (0.0, 1.0), **kwargs)
    with pytest.raises(ValueError):
        noncollision_mc(-1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        noncollision_mc(1.0, ())
    # no time elapsed: an interior start has not collided
    assert noncollision_mc(0.0, (0.0, 1.0), samples=50)[0] == 1.0


@pytest.mark.parametrize("steps", [10, 100])
@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_noncollision_matches_survival(n, wall, steps):
    # bridge weights make the estimate unbiased at any step: 3 SE, no allowance
    x = np.arange(n) + (0.5 if wall else 0.0)
    p, se = noncollision_mc(1.0, x, samples=20_000, step=1.0 / steps, wall=wall, seed=7)
    assert abs(p - survival(1.0, x, wall)) < 3 * se


def test_bridge_factor_free_pair_closed_form():
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    dt = 0.1
    x = np.cumsum(np.column_stack([np.zeros(2000), rng.uniform(0.2, 1.5, 2000)]), axis=1)
    y = x + rng.normal(scale=math.sqrt(dt), size=x.shape)
    keep = y[:, 1] > y[:, 0]
    x, y = x[keep], y[keep]
    f = _bridge_factors(x, y[:, None, :], dt, False)[:, 0]
    ref = -np.expm1(-(x[:, 1] - x[:, 0]) * (y[:, 1] - y[:, 0]) / dt)
    np.testing.assert_allclose(f, ref, rtol=1e-12, atol=0)


def test_bridge_factor_wall_single_walker_closed_form():
    # the reflected kernel enters off the diagonal only; a reflected
    # denominator would give 1 here whatever x and y are
    rng = np.random.Generator(np.random.Philox(key=[6, 0]))
    dt = 0.1
    x = rng.uniform(0.01, 2.0, size=(1000, 1))
    y = rng.uniform(0.01, 2.0, size=(1000, 1, 1))
    f = _bridge_factors(x, y, dt, True)[:, 0]
    np.testing.assert_allclose(f, -np.expm1(-2 * x[:, 0] * y[:, 0, 0] / dt), rtol=1e-12, atol=0)


@pytest.mark.parametrize("wall", [False, True])
def test_bridge_factors_are_probabilities(wall):
    rng = np.random.Generator(np.random.Philox(key=[7, int(wall)]))
    for n in range(1, 6):
        for spread in (1e-3, 1.0, 30.0):
            x = np.sort(rng.uniform(0.0, spread, size=(500, n)), axis=1)
            y = np.sort(rng.uniform(0.0, 3 * spread, size=(500, 4, n)), axis=2)
            f = _bridge_factors(x, y, 0.05, wall)
            assert f.shape == (500, 4)
            assert np.all((f >= 0) & (f <= 1))


def test_noncollision_far_jumps_raise_no_warning():
    # one step over the whole horizon, jumps ~1e3 against gaps of 1e-3:
    # naive kernel ratios would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for wall in (False, True):
            p, _ = noncollision_mc(1e6, (1e-3, 2e-3, 3e-3), samples=2000, step=1e6,
                                   wall=wall, seed=1)
            assert 0 <= p < 1e-6
        f = _bridge_factors(np.array([[0.0, 1.0, 2.0]]),
                            np.array([[[-1000.0, -999.0, -998.0]]]), 1.0, False)
    assert 0 < f[0, 0] < 1


def test_noncollision_memory_is_bounded():
    tracemalloc.start()
    try:
        p, _ = noncollision_mc(1.0, (0.0, 1.0, 2.0, 3.0), samples=200_000, step=0.1, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < p < 1
    assert peak < 64 * 2 ** 20


def test_noncollision_parameter_names():
    # perfbench/tracing.py binds samples, t and step by name to count path steps
    names = list(inspect.signature(noncollision_mc).parameters)
    assert names == ["t", "x", "samples", "step", "wall", "seed"]


def test_endpoint_values():
    ens = simulate_sde(SimConfig("sde-p", ModelSpec(2), step=1e-2, t_end=0.3,
                                 samples=40, seed=2))
    np.testing.assert_array_equal(endpoint_values(ens, 0), ens.paths[:, 0, -1])
    assert np.all(endpoint_values(ens, 1) > endpoint_values(ens, 0))
    with pytest.raises(TypeError):
        endpoint_values(ens)
