import math

import numpy as np
import pytest
from scipy import stats as sps

from viciouskit.densities import ModelSpec, coordinate_cdf
from viciouskit.montecarlo import sample_origin_law
from viciouskit.quadrature import chamber_integral
from viciouskit.rmt import eigen_density, pm_bridge_check, sample_ensemble


def test_goe_single_entry_variance():
    s = sample_ensemble("GOE", 1, variance=1.0, samples=10_000, seed=3)
    lam = s.eigenvalues[:, 0]
    se = math.sqrt(2.0 / len(lam))
    assert abs(lam.var() - 1.0) < 4 * se
    assert lam.mean() == pytest.approx(0.0, abs=4 / math.sqrt(len(lam)))


def test_eigen_density_normalizes():
    # ordered-chamber mass of the symmetric joint density is 1/N!
    for kind, n in (("GOE", 2), ("GUE", 2), ("GOE", 3), ("GUE", 3)):
        mass = chamber_integral(lambda y: eigen_density(kind, y, 1.0),
                                n, -9.0, 9.0, order=110)
        assert mass == pytest.approx(1.0 / math.factorial(n), abs=1e-8)


@pytest.mark.parametrize("kind", ["GOE", "GUE"])
@pytest.mark.parametrize("n", [2, 3])
def test_spectra_match_closed_form_density(kind, n):
    # GOE(1) is the g law at t = T = 1, GUE(1) the p law at t = 1
    s = sample_ensemble(kind, n, variance=1.0, samples=4000, seed=8)
    spec = ModelSpec(n, horizon=1.0 if kind == "GOE" else math.inf)
    for k in range(n):
        d = sps.kstest(s.eigenvalues[:, k], lambda x: coordinate_cdf(spec, 1.0, x)[..., k]).statistic
        assert d < 1.63 / math.sqrt(4000)


def test_gue_level_repulsion():
    # the nearest-neighbor gap density vanishes at zero: P(gap < eps) ~ eps^3
    s = sample_ensemble("GUE", 2, variance=1.0, samples=40_000, seed=4)
    gaps = np.diff(s.eigenvalues, axis=1)[:, 0]
    p1 = np.mean(gaps < 0.2)
    p2 = np.mean(gaps < 0.4)
    # cubic scaling would give a ratio of 8; allow sampling noise
    assert p2 / max(p1, 1e-12) > 5.0


def test_pm_alpha_one_is_gue():
    pm = sample_ensemble("PM", 2, variance=1.0, alpha=1.0, samples=5000, seed=6)
    gue = sample_ensemble("GUE", 2, variance=0.5, samples=5000, seed=7)
    for k in (0, 1):
        d = sps.ks_2samp(pm.eigenvalues[:, k], gue.eigenvalues[:, k]).statistic
        assert d < 1.63 * math.sqrt(2 / 5000)


def test_pm_alpha_zero_is_goe():
    pm = sample_ensemble("PM", 2, variance=1.0, alpha=0.0, samples=5000, seed=6)
    goe = sample_ensemble("GOE", 2, variance=1.0, samples=5000, seed=7)
    for k in (0, 1):
        d = sps.ks_2samp(pm.eigenvalues[:, k], goe.eigenvalues[:, k]).statistic
        assert d < 1.63 * math.sqrt(2 / 5000)


def test_pm_interpolates_monotonically():
    # distance of the top eigenvalue law to the GUE limit shrinks with alpha
    ref = sample_ensemble("GUE", 2, variance=0.5, samples=8000, seed=10)
    dists = []
    for alpha in (0.0, 0.5, 1.0):
        pm = sample_ensemble("PM", 2, variance=1.0, alpha=alpha,
                             samples=8000, seed=11)
        dists.append(sps.ks_2samp(pm.eigenvalues[:, 1],
                                  ref.eigenvalues[:, 1]).statistic)
    assert dists[0] > dists[1] > dists[2]


def test_finite_horizon_endpoint_mass_shrinks_with_t():
    # conditioning on survival to the horizon concentrates the endpoint
    rng = np.random.Generator(np.random.Philox(key=[1, 1]))
    a = sample_origin_law(ModelSpec(2, horizon=1.0), 0.3, 4000, rng)
    b = sample_ensemble("GOE", 2, variance=0.3, samples=4000, seed=2).eigenvalues
    # conditioned gaps are stochastically larger than the plain GOE gaps
    ga, gb = np.diff(a, axis=1)[:, 0], np.diff(b, axis=1)[:, 0]
    assert ga.mean() > gb.mean()
    assert np.all(np.diff(a, axis=1) > 0)


def test_pm_bridge_check_passes():
    # Bonferroni over the 12 reports of the three sizes
    for n in (2, 4, 5):
        reports = pm_bridge_check(n, 1.0, 0.5, samples=4000, seed=0, level=0.01 / 12)
        assert len(reports) == n + 1
        assert all(r.verdict == "pass" for r in reports), [r.statistic for r in reports]
        assert all("fitted_scale" not in r.metadata for r in reports)


def test_input_validation():
    with pytest.raises(ValueError):
        sample_ensemble("XYZ", 2)
    with pytest.raises(ValueError):
        sample_ensemble("PM", 2, alpha=None)
    with pytest.raises(ValueError):
        sample_ensemble("PM", 2, alpha=1.5)
    with pytest.raises(ValueError):
        eigen_density("PM", np.zeros((1, 2)))
