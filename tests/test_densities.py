import math

import numpy as np
import pytest

from viciouskit.densities import (ModelSpec, _survival_matrix, de_bruijn_check, drift,
                                  drift_batch, g_density, imhof_check, km_density,
                                  p_density, survival, survival_asymptotics, survival_batch)
from viciouskit.quadrature import ordered_grid
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


def test_drift_infinite_horizon_closed_forms():
    spec = ModelSpec(3, horizon=math.inf)
    x = np.array([-1.0, 0.2, 1.7])
    b = drift(spec, 0.5, x)
    expect = np.array([sum(1.0 / (x[i] - x[j]) for j in range(3) if j != i)
                       for i in range(3)])
    np.testing.assert_allclose(b, expect, rtol=1e-12)
    # wall variant equals the gradient of log h_hat
    specw = ModelSpec(3, horizon=math.inf, wall=True)
    xw = np.array([0.4, 1.1, 2.3])
    bw = drift(specw, 0.5, xw)
    eps = 1e-6
    fd = np.array([
        (math.log(h_hat_poly(xw + eps * np.eye(3)[i]))
         - math.log(h_hat_poly(xw - eps * np.eye(3)[i]))) / (2 * eps)
        for i in range(3)])
    np.testing.assert_allclose(bw, fd, rtol=1e-7)


def test_drift_batch_matches_pointwise():
    rng = np.random.Generator(np.random.Philox(key=[4, 0]))
    for n, wall in ((2, True), (3, False), (3, True)):
        spec = ModelSpec(n, horizon=2.0, wall=wall)
        xs = np.sort(rng.random((5, n)) * 2 + (0.2 if wall else -1.0), axis=1)
        xs += np.arange(n) * 0.3
        batch = drift_batch(spec, 0.5, xs)
        for row, b in zip(xs, batch):
            np.testing.assert_allclose(b, drift(spec, 0.5, row), rtol=1e-4, atol=1e-6)


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
    a, d = _survival_matrix(spec.horizon - 0.3, xs, wall)
    ref = np.empty_like(xs)
    with mp.workdps(50):
        for r in range(len(xs)):
            inv = mp.inverse(mp.matrix(a[r].tolist()))
            for k in range(n):
                ref[r, k] = float(mp.fsum(inv[j, k] * d[r, k, j] for j in range(a.shape[-1])))
    b = drift_batch(spec, 0.3, xs)
    bound = np.maximum(1e-8, np.finfo(float).eps * np.linalg.cond(a))
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
                                          (3, "gaussian", 1e-4)])
def test_de_bruijn_reduction(n, kernel, tol):
    x = np.array([0.3, 1.1, 2.2][:n])
    assert de_bruijn_check(n, kernel, x) < tol


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
