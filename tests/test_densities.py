import math

import numpy as np
import pytest
from scipy import special

from tensor_references import km_chamber_integral
from viciouskit import linalg
from viciouskit.densities import (ModelSpec, _survival_matrix, coordinate_cdf, de_bruijn_check,
                                  drift, drift_batch, g_density, imhof_check, km_density,
                                  p_density, survival, survival_asymptotics, survival_batch)
from viciouskit.harness import ks_test
from viciouskit.montecarlo import _philox, sample_origin_law
from viciouskit.quadrature import chamber_integral, ordered_grid
from viciouskit.special_functions import h_hat_poly, h_poly, psi, psi_hat


def test_km_density_single_particle_is_heat_kernel():
    x = np.array([0.3])
    val = km_density(2.0, x, np.array([1.1]))
    ref = math.exp(-((1.1 - 0.3) ** 2) / 4.0) / math.sqrt(4 * math.pi)
    assert val == pytest.approx(ref, rel=1e-14)


def test_km_density_wall_vanishes_at_wall():
    x = np.array([0.5])
    assert km_density(1.0, x, np.array([0.0]), wall=True) == pytest.approx(0.0, abs=1e-15)


def test_survival_two_walkers_closed_form():
    x = np.array([0.0, 1.0])
    for t in (0.25, 1.0, 4.0):
        assert survival(t, x) == pytest.approx(psi(1.0 / (2 * math.sqrt(t))), rel=1e-13)
    assert survival(0.0, x) == 1.0


def _survival_closed_form(t, xs, wall):
    """The N <= 3 Pfaffians expanded by hand: an oracle independent of linalg.pfaffian."""
    n = xs.shape[-1]
    if not wall:
        if n == 1:
            return np.ones(xs.shape[:-1])
        c = 1.0 / (2 * math.sqrt(t))
        if n == 2:
            return psi(c * (xs[..., 1] - xs[..., 0]))
        if n == 3:
            p12 = psi(c * (xs[..., 1] - xs[..., 0]))
            p13 = psi(c * (xs[..., 2] - xs[..., 0]))
            p23 = psi(c * (xs[..., 2] - xs[..., 1]))
            return p12 - p13 + p23
    else:
        u = xs / math.sqrt(2 * t)
        if n == 1:
            return psi(u[..., 0])
        if n == 2:
            return psi_hat(u[..., 0], u[..., 1])
        if n == 3:
            f12 = psi_hat(u[..., 0], u[..., 1])
            f13 = psi_hat(u[..., 0], u[..., 2])
            f23 = psi_hat(u[..., 1], u[..., 2])
            return f12 * psi(u[..., 2]) - f13 * psi(u[..., 1]) + f23 * psi(u[..., 0])
    raise ValueError("closed forms cover N <= 3")


def test_survival_batch_matches_pfaffian():
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    for n in (1, 2, 3):
        for wall in (False, True):
            xs = np.sort(rng.random((20, n)) * 3 + (0.05 if wall else -1.0), axis=1)
            oracle = _survival_closed_form(0.7, xs, wall)
            np.testing.assert_allclose(survival_batch(0.7, xs, wall), oracle, rtol=1e-10)
            for row, ref in zip(xs, oracle):
                assert survival(0.7, row, wall) == pytest.approx(ref, rel=1e-10)


def test_survival_monotone_in_time():
    x = np.array([0.0, 0.7, 2.0])
    vals = [survival(t, x) for t in (0.1, 0.5, 2.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("t", [0.8, 1.0])
def test_survival_is_a_probability_at_near_collision(t):
    # behind the wall at N=4 the Pfaffian at a near-coincident pair cancels
    # to rounding noise below 0 (-7.4e-19 at t = 0.8, -2.6e-18 at t = 1)
    x = np.array([0.5, 1.0, 1.0 + 1e-15, 2.0])
    assert 0.0 <= survival_batch(t, x, True) <= 1.0
    assert 0.0 <= survival(t, x, True) <= 1.0


def test_survival_clip_keeps_in_range_values():
    # the clip to [0, 1] leaves every value the Pfaffian gives inside it, bit for bit
    rng = np.random.Generator(np.random.Philox(key=[8, 0]))
    for n in (2, 3, 4, 5):
        for wall in (False, True):
            xs = np.sort(rng.random((200, n)) * 3 + (0.01 if wall else -1.0), axis=1)
            raw = linalg.pfaffian(np.moveaxis(_survival_matrix(0.6, xs, wall)[0], -1, 0))
            inside = (raw >= 0) & (raw <= 1)
            assert inside.mean() > 0.9
            assert np.array_equal(survival_batch(0.6, xs, wall)[inside], raw[inside])


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("family", ["g", "p"])
def test_origin_densities_normalize(wall, family):
    spec = ModelSpec(2, horizon=2.0 if family == "g" else math.inf, wall=wall)
    f = g_density if family == "g" else p_density
    lo = 0.0 if wall else -8.0
    pts, wts = ordered_grid(2, lo, 8.0, order=120)
    dens = f(spec, 0.0, None, 1.0, pts.reshape(-1, 2)).reshape(wts.shape)
    assert float((dens * wts).sum()) == pytest.approx(1.0, abs=1e-6)


def test_transition_density_chapman_kolmogorov():
    # integrate the two-step product over the intermediate configuration
    spec = ModelSpec(2, horizon=math.inf)
    x = np.array([-0.5, 0.8])
    y = np.array([-0.2, 1.1])
    pts, wts = ordered_grid(2, -9.0, 9.0, order=140)
    flat = pts.reshape(-1, 2)
    mid = p_density(spec, 0.0, x, 0.6, flat)
    # p(0.6 -> 1.3) needs per-row evaluation since x varies
    fin = np.array([p_density(spec, 0.6, row, 1.3, y) if np.all(np.diff(row) > 0)
                    else 0.0 for row in flat])
    lhs = float((mid * fin * wts.ravel()).sum())
    rhs = p_density(spec, 0.0, x, 1.3, y)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_imhof_identity_randomized():
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    for n in (1, 2, 3):
        for wall in (False, True):
            for _ in range(10):
                T = 0.5 + rng.random()
                k = int(rng.integers(1, 4))
                times = np.sort(0.1 + 0.8 * rng.random(k)) * T
                times = list(times) + [T]
                pts = []
                for _t in times:
                    x = np.sort(rng.random(n) * 2) + (0.1 if wall else -1.0)
                    while n > 1 and np.any(np.diff(x) < 0.05):
                        x = np.sort(rng.random(n) * 2) + (0.1 if wall else -1.0)
                    pts.append(x)
                spec = ModelSpec(n, horizon=T, wall=wall)
                assert imhof_check(spec, times, pts) < 1e-8


def _two_walker_drift(tau, x):
    """Free N = 2 finite-horizon drift: d/dx log erf(c (x_2 - x_1)), c = 1/(2 sqrt(tau))."""
    c = 1.0 / (2 * math.sqrt(tau))
    d = x[1] - x[0]
    phi = (2.0 / math.sqrt(math.pi)) * c * math.exp(-((c * d) ** 2)) / math.erf(c * d)
    return np.array([-phi, phi])


def test_drift_two_walker_closed_form_vs_finite_difference():
    spec = ModelSpec(2, horizon=3.0)
    x = np.array([-0.2, 0.4])
    closed = _two_walker_drift(2.0, x)
    np.testing.assert_allclose(drift(spec, 1.0, x), closed, rtol=1e-12)
    batch = drift_batch(spec, 1.0, x[None, :])[0]
    np.testing.assert_allclose(batch, closed, rtol=1e-12)
    # antisymmetric pair drift pushing the walkers apart
    assert batch[0] < 0 < batch[1]
    assert batch[0] == pytest.approx(-batch[1], rel=1e-12)


def _loop_drift_p(x, wall):
    """The h-transform drift of one configuration, summed walker by walker."""
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        out[i] = sum(1.0 / (x[i] - x[j]) for j in range(n) if j != i)
        if wall:
            out[i] = out[i] + 1.0 / x[i] + sum(1.0 / (x[i] + x[j]) for j in range(n) if j != i)
    return out


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_drift_infinite_horizon_closed_forms(n, wall):
    # drift_batch's per-walker pair sums, batched and row by row, against
    # sum_{j != i} 1/(x_i - x_j), plus 1/x_i + sum_{j != i} 1/(x_i + x_j) behind the wall
    rng = np.random.Generator(np.random.Philox(key=[12, n]))
    spec = ModelSpec(n, horizon=math.inf, wall=wall)
    xs = np.sort(rng.uniform(0.05 if wall else -3.0, 3.0, size=(50, n)), axis=1)
    xs += np.arange(n) * 0.1
    expect = np.array([_loop_drift_p(row, wall) for row in xs])
    np.testing.assert_allclose(drift_batch(spec, 0.5, xs), expect, rtol=1e-14)
    np.testing.assert_allclose(drift_batch(spec, 0.5, xs.reshape(5, 10, n)),
                               expect.reshape(5, 10, n), rtol=1e-14)
    np.testing.assert_allclose([drift(spec, 0.5, row) for row in xs], expect, rtol=1e-14)
    if wall:
        # the wall drift equals the gradient of log h_hat
        xw = np.array([0.4, 1.1, 2.3, 3.0, 3.6, 4.5])[:n]
        eps = 1e-6
        fd = np.array([
            (math.log(h_hat_poly(xw + eps * np.eye(n)[i]))
             - math.log(h_hat_poly(xw - eps * np.eye(n)[i]))) / (2 * eps)
            for i in range(n)])
        np.testing.assert_allclose(drift(spec, 0.5, xw), fd, rtol=1e-7)


def test_drift_batch_matches_pointwise():
    rng = np.random.Generator(np.random.Philox(key=[4, 0]))
    for n, wall in ((2, True), (3, False), (3, True)):
        spec = ModelSpec(n, horizon=2.0, wall=wall)
        xs = np.sort(rng.random((5, n)) * 2 + (0.2 if wall else -1.0), axis=1)
        xs += np.arange(n) * 0.3
        batch = drift_batch(spec, 0.5, xs)
        for row, b in zip(xs, batch):
            np.testing.assert_array_equal(b, drift(spec, 0.5, row))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wall_kernel_does_not_depend_on_batch_size(n):
    # a configuration gets the same bits alone, in a short batch or in a long one
    rng = np.random.Generator(np.random.Philox(key=[15, n]))
    xs = np.sort(rng.random((60, n)) * 2.5 + 0.05, axis=1) + np.arange(n) * 0.2
    spec = ModelSpec(n, horizon=2.0, wall=True)
    surv = survival_batch(0.7, xs, wall=True)
    b = drift_batch(spec, 0.5, xs)
    for size in range(1, 9):
        for k in range(0, len(xs), size):
            np.testing.assert_array_equal(survival_batch(0.7, xs[k:k + size], wall=True),
                                          surv[k:k + size])
            np.testing.assert_array_equal(drift_batch(spec, 0.5, xs[k:k + size]), b[k:k + size])
    np.testing.assert_array_equal([survival(0.7, x, wall=True) for x in xs], surv)


def _richardson_grad_log(fun, xs, h=1e-3):
    """Richardson-extrapolated central differences of log fun, per row of xs."""
    out = np.empty_like(xs)
    for k in range(xs.shape[1]):
        step = np.zeros(xs.shape[1])
        step[k] = 1.0

        def central(s):
            return (np.log(fun(xs + s * step)) - np.log(fun(xs - s * step))) / (2 * s)

        out[:, k] = (4 * central(h / 2) - central(h)) / 3
    return out


def test_drift_matches_log_survival_difference():
    rng = np.random.Generator(np.random.Philox(key=[4, 0]))
    for n in (1, 2, 3, 4):
        for wall in (False, True):
            spec = ModelSpec(n, horizon=2.0, wall=wall)
            xs = np.sort(rng.random((5, n)) * 2 + (0.2 if wall else -1.0), axis=1)
            xs += np.arange(n) * 0.3
            b = drift_batch(spec, 0.5, xs)
            fd = _richardson_grad_log(lambda z: survival_batch(1.5, z, wall), xs)
            assert np.max(np.abs(b - fd) / (np.abs(b) + 1e-3)) <= 1e-4


def test_drift_guard_near_boundary():
    spec = ModelSpec(2, horizon=1.0)
    x = np.array([0.0, 1e-9])
    np.testing.assert_allclose(drift(spec, 0.5, x), _two_walker_drift(0.5, x), rtol=1e-12)
    with pytest.raises(ValueError):
        drift(spec, 1.0, np.array([0.0, 1.0]))     # singular at the horizon


@pytest.mark.parametrize("n,wall", [(5, False), (4, True)])
def test_drift_matches_high_precision_inverse(n, wall):
    # sum_j (A^-1)_jk dA_kj/dx_k with A^-1 the 50-digit inverse of the same
    # float64 survival matrices that drift_batch eliminates.  Relative error
    # 1e-8, or eps * cond(A) for the few rows (close pairs) where float64
    # input alone allows more: a backward-stable inverse gets no closer
    mp = pytest.importorskip("mpmath")
    rng = np.random.Generator(np.random.Philox(key=[8, n]))
    spec = ModelSpec(n, horizon=1.0, wall=wall)
    xs = np.sort(rng.uniform(0.05, 3.0, size=(40, n)), axis=1)
    a, d = _survival_matrix(spec.horizon - 0.3, xs, wall)     # batch-last, (dim, dim, rows)
    ref = np.empty_like(xs)
    with mp.workdps(50):
        for r in range(len(xs)):
            inv = mp.inverse(mp.matrix(a[:, :, r].tolist()))
            for k in range(n):
                ref[r, k] = float(mp.fsum(inv[j, k] * d[k, j, r] for j in range(a.shape[0])))
    b = drift_batch(spec, 0.3, xs)
    bound = np.maximum(1e-8, np.finfo(float).eps * np.linalg.cond(np.moveaxis(a, -1, 0)))
    assert np.all(np.abs(b - ref) / np.abs(ref) <= bound[:, None])


def test_coincident_walkers_singular_matrix():
    # coincident walkers: survival is exactly +0.0 and the drift is undefined
    s = survival_batch(0.8, [[0.0, 0.0, 1.0]])
    assert s[0] == 0.0 and not np.signbit(s[0])
    rows = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="row 1 .* singular: the drift is undefined"):
        drift_batch(ModelSpec(3, horizon=1.0), 0.2, rows)
    with pytest.raises(ValueError, match="row 0 .* singular"):
        drift_batch(ModelSpec(3, horizon=1.0, wall=True), 0.2, np.array([[0.5, 1.0, 1.0]]))


@pytest.mark.parametrize("horizon", [1.0, math.inf])
def test_drift_rejects_start_on_wall(horizon):
    spec = ModelSpec(2, horizon=horizon, wall=True)
    with pytest.raises(ValueError, match="on the wall"):
        drift(spec, 0.5, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="on the wall"):
        drift_batch(spec, 0.5, np.array([[0.5, 1.0], [0.0, 1.0]]))


def test_g_density_batched_beyond_three_walkers():
    spec = ModelSpec(4, horizon=2.0)
    ys = np.array([[-1.0, 0.0, 0.5, 1.5], [-0.5, 0.2, 0.9, 2.0]])
    vals = g_density(spec, 0.0, np.array([-1.0, 0.0, 1.0, 2.0]), 1.0, ys)
    # per-row values of the scalar Pfaffian path
    np.testing.assert_allclose(vals, [0.0028154753637753033, 0.004090951742895522], rtol=1e-12)


@pytest.mark.parametrize("wall", [False, True])
def test_survival_asymptotics_sweep(wall):
    errs = []
    for eps in (0.2, 0.1, 0.05):
        x = eps * np.array([0.5, 1.0]) if wall else eps * np.array([-0.5, 0.5])
        _, _, r = survival_asymptotics(1.0, x, wall)
        errs.append(abs(1 - r))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05


@pytest.mark.parametrize("n,kernel,tol", [(1, "gaussian", 1e-10), (2, "gaussian", 1e-6),
                                          (2, "wall-gaussian", 1e-6),
                                          (3, "gaussian", 1e-4), (3, "wall-gaussian", 1e-4)])
def test_de_bruijn_reduction(n, kernel, tol):
    # the chamber integral of km_density at t = 1/2, by tensor quadrature (to
    # tol) and by de Bruijn's Pfaffian over coordinate_cdf's tables, is the
    # closed-form survival
    x = np.array([0.3, 1.1, 2.2][:n])
    wall = kernel == "wall-gaussian"
    assert km_chamber_integral(x, wall) == pytest.approx(survival(0.5, x, wall), rel=tol)
    assert de_bruijn_check(0.5, x, wall) < 1e-12


def test_de_bruijn_check_rejects_bad_starts():
    # a start whose grid outgrows COORDINATE_NODES is refused, not left to run
    with pytest.raises(ValueError, match="needs more than"):
        de_bruijn_check(0.5, [0.0, 1e4])
    for x, wall in (([1.0, 0.5], False), ([0.5, 0.5], False), ([0.5, 0.5], True),
                    ([-0.1, 0.5], True), ([0.0, 0.5], True)):
        with pytest.raises(ValueError):
            de_bruijn_check(0.5, x, wall)
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"\bt = "):
            de_bruijn_check(t, [0.3, 1.1])


def test_g_density_chapman_kolmogorov_from_origin():
    # integrating origin->mid->end over the mid configuration recovers the
    # one-step origin closed form
    spec = ModelSpec(2, horizon=2.0)
    y = np.array([-0.3, 0.9])
    pts, wts = ordered_grid(2, -8.0, 8.0, order=120)
    flat = pts.reshape(-1, 2)
    mid = g_density(spec, 0.0, None, 0.5, flat)
    fin = np.array([g_density(spec, 0.5, row, 1.0, y) if np.all(np.diff(row) > 0)
                    else 0.0 for row in flat])
    lhs = float((mid * fin * wts.ravel()).sum())
    assert lhs == pytest.approx(g_density(spec, 0.0, None, 1.0, y), rel=1e-6)


# ---------------------------------------------------------------------------
# coordinate_cdf: exact coordinate laws of the four endpoint ensembles


def _endpoint_law(family, n, t, wall):
    """The ModelSpec and origin density of the g law at t = horizon or the p law at t."""
    spec = ModelSpec(n, horizon=t if family == "g" else math.inf, wall=wall)
    law = g_density if family == "g" else p_density
    return spec, lambda y: law(spec, 0.0, None, t, y)


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("family", ["g", "p"])
def test_coordinate_cdf_single_walker_closed_forms(family, wall):
    # N(0, t) free; behind the wall Rayleigh at t = T and chi with 3 degrees of
    # freedom for the 3d Bessel process
    t = 1.7
    s = np.linspace(-3.0, 7.0, 201)
    spec, _ = _endpoint_law(family, 1, t, wall)
    u = np.maximum(s, 0.0) ** 2 / (2 * t)
    closed = {(False, "g"): special.ndtr(s / math.sqrt(t)),
              (False, "p"): special.ndtr(s / math.sqrt(t)),
              (True, "g"): -np.expm1(-u),
              (True, "p"): special.gammainc(1.5, u)}[wall, family]
    np.testing.assert_allclose(coordinate_cdf(spec, t, s)[:, 0], closed, rtol=0, atol=1e-14)


def _chamber_split(density, n, below, lo, s, hi, order):
    """Chamber mass with exactly `below` coordinates in [lo, s] and the rest in [s, hi]."""
    if below == 0:
        return chamber_integral(density, n, s, hi, order=order)
    if below == n:
        return chamber_integral(density, n, lo, s, order=order)
    pa, wa = ordered_grid(below, lo, s, order)
    pb, wb = ordered_grid(n - below, s, hi, order)
    grid = (pa.size // below, pb.size // (n - below))
    pts = np.concatenate([np.broadcast_to(pa.reshape(-1, 1, below), grid + (below,)),
                          np.broadcast_to(pb.reshape(1, -1, n - below), grid + (n - below,))],
                         axis=-1)
    return float(np.sum(density(pts) * wa.reshape(-1, 1) * wb.reshape(1, -1)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("family", ["g", "p"])
def test_coordinate_cdf_matches_chamber_quadrature(family, wall, n):
    # P(y_k <= s) = mass with at least k + 1 coordinates below s, by direct
    # tensor quadrature of the origin density split at s
    t = 0.7
    spec, density = _endpoint_law(family, n, t, wall)
    lo, hi = (0.0, 8.0) if wall else (-8.0, 8.0)
    s = np.array([0.4, 1.6]) if wall else np.array([-0.6, 1.1])
    got = coordinate_cdf(spec, t, s)
    for i, si in enumerate(s):
        parts = [_chamber_split(density, n, m, lo, si, hi, 40) for m in range(n + 1)]
        ref = [sum(parts[k + 1:]) for k in range(n)]
        np.testing.assert_allclose(got[i], ref, rtol=0, atol=1e-10)


# Bonferroni over every coordinate of the laws below, free and behind the
# wall: beta = 2 at N = 5 and 8, beta = 1 at N = 4 and 5 (test_montecarlo
# covers the wall laws at N <= 6)
KS_LAWS = [(family, n, wall) for wall in (False, True)
           for family, sizes in (("p", (5, 8)), ("g", (4, 5))) for n in sizes]
KS_LEVEL = 0.01 / sum(n for _, n, _ in KS_LAWS)


@pytest.mark.parametrize("family, n, wall", KS_LAWS)
def test_coordinate_cdf_matches_exact_draws(family, n, wall):
    # 2e4 two-matrix draws per law.  The law is tabulated on 4001 points and
    # interpolated: linear interpolation between exact values is within 2e-5
    # of it, far inside the KS critical value of 0.014
    t = 0.8
    spec, _ = _endpoint_law(family, n, t, wall)
    y = sample_origin_law(spec, t, 20_000, _philox(60 + n, 2 * wall + (family == "g")))
    hi = (math.sqrt(8 * n) + 8) * math.sqrt(t)
    grid = np.linspace(0.0 if wall else -hi, hi, 4001)
    table = coordinate_cdf(spec, t, grid)
    for k in range(n):
        rep = ks_test(y[:, k], lambda v, k=k: np.interp(v, grid, table[:, k]), level=KS_LEVEL)
        assert rep.verdict == "pass", (k, rep.statistic, rep.critical_value)


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("family, n", [("g", 5), ("p", 8)])
def test_coordinate_cdf_is_a_cdf(family, n, wall):
    # every coordinate's law is monotone into [0, 1], coordinates are ordered,
    # and the float error stays inside ks_test's 1e-12 monotonicity check
    spec, _ = _endpoint_law(family, n, 1.0, wall)
    s = np.linspace(-20.0, 20.0, 4001)
    f = coordinate_cdf(spec, 1.0, s)
    assert f.shape == (4001, n)
    assert f.min() >= 0.0 and f.max() <= 1.0
    assert f[0].max() < 1e-14 and f[-1].min() > 1.0 - 1e-14
    if wall:
        assert not f[s <= 0].any()
    assert np.diff(f, axis=0).min() > -1e-12
    assert np.all(np.diff(f, axis=1) <= 1e-12)      # y_k <= s implies y_(k-1) <= s
    assert coordinate_cdf(spec, 1.0, 0.3).shape == (n,)


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("horizon, t", [(1.0, 1.0), (1.0, 0.5), (math.inf, 1.0), (math.inf, 0.5)])
def test_coordinate_cdf_does_not_depend_on_the_batch(horizon, t, wall):
    # a point's law is the same bit for bit alone, inside a batch of several
    # slabs and inside the same batch reshaped
    spec = ModelSpec(3, horizon=horizon, wall=wall)
    s = np.random.default_rng(24).uniform(-4.0, 4.0, 7000) * math.sqrt(t)
    whole = coordinate_cdf(spec, t, s)
    np.testing.assert_array_equal(coordinate_cdf(spec, t, s.reshape(70, 100)).reshape(whole.shape),
                                  whole)
    for i in (0, 3500, 6999):
        np.testing.assert_array_equal(coordinate_cdf(spec, t, s[i]), whole[i])


def test_coordinate_cdf_rejects_bad_times_and_points():
    g, p = ModelSpec(2, horizon=1.0), ModelSpec(2)
    for spec, t in ((g, 0.0), (g, -1.0), (g, 1.5), (g, math.inf), (g, math.nan),
                    (ModelSpec(2, horizon=1.0, wall=True), math.inf), (p, 0.0), (p, math.inf)):
        with pytest.raises(ValueError, match=r"\bt = "):
            coordinate_cdf(spec, t, 0.3)
    for spec in (g, p, ModelSpec(3, horizon=1.0, wall=True), ModelSpec(3, wall=True)):
        with pytest.raises(ValueError, match=r"\bs must"):
            coordinate_cdf(spec, 0.5, np.array([0.1, math.nan]))
    # a kernel finer than the grid can resolve is refused, not left to run,
    # and so is a law float64 cannot resolve
    with pytest.raises(ValueError, match="too close to the horizon"):
        coordinate_cdf(g, 1.0 - 1e-9, 0.3)
    with pytest.raises(ValueError, match="float64 cannot resolve"):
        coordinate_cdf(ModelSpec(8, horizon=1.0, wall=True), 0.1, 0.3)


# ---------------------------------------------------------------------------
# coordinate_cdf before the horizon: the two-matrix law and its class C analogue

BEFORE_HORIZON = [0.3, 0.5, 0.9, 0.99]      # t / T


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("ratio", BEFORE_HORIZON)
def test_coordinate_cdf_single_walker_before_the_horizon(ratio, wall):
    # free N(0, t); behind the wall the meander-type law
    # F(s) = erf(s sqrt(T / 2 t tau)) - sqrt(T / t) e^{-s^2 / 2t} erf(s / sqrt(2 tau))
    T = 1.6
    t, tau = ratio * T, (1 - ratio) * T
    s = np.linspace(-3.0, 7.0, 201)
    f = coordinate_cdf(ModelSpec(1, horizon=T, wall=wall), t, s)[:, 0]
    if wall:
        u = np.maximum(s, 0.0)
        closed = (special.erf(u * math.sqrt(T / (2 * t * tau)))
                  - math.sqrt(T / t) * np.exp(-u ** 2 / (2 * t)) * special.erf(u / math.sqrt(2 * tau)))
    else:
        closed = special.ndtr(s / math.sqrt(t))
    np.testing.assert_allclose(f, closed, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("ratio", BEFORE_HORIZON)
def test_coordinate_cdf_before_the_horizon_matches_chamber_quadrature(ratio, wall, n):
    # as test_coordinate_cdf_matches_chamber_quadrature, at one s in the
    # bulk (the reference evaluates psi_hat at every node).  The chamber runs
    # to 10, as at t near T the wall law's mass above 8 reaches 1e-11, and at
    # t / T = 0.99 the density varies on the scale sqrt(T - t) = 0.1, which
    # takes order 50 (order 40 is off by up to 1e-9 there)
    t = ratio * 1.0
    spec = ModelSpec(n, horizon=1.0, wall=wall)
    density = lambda y: g_density(spec, 0.0, None, t, y)
    lo, hi, s = (0.0, 10.0, 0.9) if wall else (-10.0, 10.0, 0.3)
    order = 50 if ratio > 0.95 else 40
    parts = [_chamber_split(density, n, m, lo, s, hi, order) for m in range(n + 1)]
    ref = [sum(parts[k + 1:]) for k in range(n)]
    np.testing.assert_allclose(coordinate_cdf(spec, t, s), ref, rtol=0, atol=1e-10)


# Bonferroni over the 30 coordinates of the laws below
BEFORE_HORIZON_KS = [(n, ratio, wall) for wall in (False, True)
                     for n, ratio in ((4, 0.6), (5, 0.9), (6, 0.6))]


@pytest.mark.parametrize("n, ratio, wall", BEFORE_HORIZON_KS)
def test_coordinate_cdf_before_the_horizon_matches_exact_draws(n, ratio, wall):
    # 2e4 exact two-matrix draws (class C behind the wall) per law, against
    # the law tabulated on 4001 points as in test_coordinate_cdf_matches_exact_draws
    t = ratio * 1.0
    spec = ModelSpec(n, horizon=1.0, wall=wall)
    y = sample_origin_law(spec, t, 20_000, _philox(70 + n, 2 * wall + int(10 * ratio)))
    hi = (math.sqrt(8 * n) + 8) * math.sqrt(t)
    grid = np.linspace(0.0 if wall else -hi, hi, 4001)
    table = coordinate_cdf(spec, t, grid)
    for k in range(n):
        rep = ks_test(y[:, k], lambda v, k=k: np.interp(v, grid, table[:, k]), level=0.01 / 30)
        assert rep.verdict == "pass", (k, rep.statistic, rep.critical_value)


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("n, ratio", [(5, 0.5), (8, 0.9)])
def test_coordinate_cdf_before_the_horizon_is_a_cdf(n, ratio, wall):
    # the invariants of test_coordinate_cdf_is_a_cdf for the g law at t < T,
    # to the 1e-12 of ks_test's monotonicity check; at N = 8 the de Bruijn
    # matrix is well conditioned for t / T near 1 only (coordinate_cdf)
    spec = ModelSpec(n, horizon=1.0, wall=wall)
    s = np.linspace(-20.0, 20.0, 4001)
    f = coordinate_cdf(spec, ratio, s)
    assert f.min() >= 0.0 and f.max() <= 1.0
    assert f[0].max() < 1e-12 and f[-1].min() > 1.0 - 1e-12
    if wall:
        assert not f[s <= 0].any()
    assert np.diff(f, axis=0).min() > -1e-12
    assert np.all(np.diff(f, axis=1) <= 1e-12)
