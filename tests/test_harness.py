import json
import math
import pathlib

import numpy as np
import pytest
from scipy import stats as sps

from viciouskit import harness
from viciouskit.harness import StatReport, ks_test, ks_two_sample, verify_suite, walker_gap_cdf


def test_ks_calibration():
    # at the 1% level roughly 99 of 100 null replications should pass
    rng = np.random.Generator(np.random.Philox(key=[1, 0]))
    passes = sum(
        ks_test(rng.normal(size=500), sps.norm.cdf, level=0.01).verdict == "pass"
        for _ in range(100))
    assert passes >= 95


def test_ks_rejects_wrong_law():
    rng = np.random.Generator(np.random.Philox(key=[2, 0]))
    rep = ks_test(rng.normal(loc=0.5, size=2000), sps.norm.cdf, level=0.01)
    assert rep.verdict == "fail"
    assert rep.statistic > rep.critical_value


def test_ks_eval_points_grid():
    # discrete samples on integers: evaluating only at midpoints removes the
    # half-atom discrepancy of the step empirical CDF
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    vals = rng.binomial(100, 0.5, size=4000).astype(float)
    cdf = lambda x: sps.binom(100, 0.5).cdf(np.floor(x))
    mids = np.arange(20, 81) + 0.5
    rep = ks_test(vals, cdf, level=0.01, eval_points=mids)
    assert rep.verdict == "pass"


def test_ks_two_sample_basics():
    rng = np.random.Generator(np.random.Philox(key=[4, 0]))
    a, b = rng.normal(size=1500), rng.normal(size=1500)
    assert ks_two_sample(a, b).verdict == "pass"
    rep = ks_two_sample(np.zeros(50), np.ones(50))
    assert rep.statistic == pytest.approx(1.0)
    assert rep.verdict == "fail"
    with pytest.raises(ValueError):
        ks_two_sample(np.zeros(3), np.ones(50))


@pytest.mark.parametrize("decimals", [None, 1])
@pytest.mark.parametrize("sizes", [(10, 11), (37, 211), (500, 123), (1000, 999)])
def test_ks_two_sample_statistic_matches_scipy(sizes, decimals):
    # scipy.stats is the reference here; rounding to one decimal makes ties
    # within and across the samples
    rng = np.random.Generator(np.random.Philox(key=[6, sum(sizes)]))
    a, b = rng.normal(size=sizes[0]), rng.normal(loc=0.1, size=sizes[1])
    if decimals is not None:
        a, b = np.round(a, decimals), np.round(b, decimals)
    ref = sps.ks_2samp(a, b, method="asymp").statistic
    assert ks_two_sample(a, b).statistic == ref
    assert ks_two_sample(b, a).statistic == ref


@pytest.mark.parametrize("level", [0.01, 0.01 / 4, 0.01 / 8])
def test_ks_coefficient_is_kolmogorov_quantile(level):
    # the root of 2 sum (-1)^(k-1) e^{-2 k^2 x^2} = level at 40 digits; bisection to adjacent
    # floats leaves at most one ulp
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        tail = lambda x: 2 * mp.nsum(lambda k: (-1) ** (k - 1) * mp.exp(-2 * k * k * x * x),
                                     [1, mp.inf]) - level
        root = mp.findroot(tail, mp.mpf(1.7))
        ours = harness._ks_coefficient(level)
        assert abs(mp.mpf(ours) - root) <= np.spacing(ours)
    assert ours == pytest.approx(sps.kstwobign.isf(level), rel=1e-15)


@pytest.mark.parametrize("start_gap,t", [(2.0 / 16, 1.0), (2.0, 1.0), (0.5, 0.3)])
def test_walker_gap_cdf_matches_normal_cdf_form(start_gap, t):
    # the reflection difference of Gaussians, [Phi(a) - Phi(-b) - Phi(c) + Phi(b)] / z, at 30
    # digits; the erf difference is divided by 2 z = 2 psi(gx / sqrt(2 t)), down to 0.14, so
    # a few ulps of error grow up to sevenfold: bound 32 ulps of 1
    mp = pytest.importorskip("mpmath")
    gx, st = start_gap / math.sqrt(2), math.sqrt(t)
    g = np.linspace(-1.0, 10.0, 501)
    with mp.workdps(30):
        z = 2 * mp.ncdf(gx / st) - 1
        ref = [min(max((mp.ncdf((v - gx) / st) - mp.ncdf(-gx / st) - mp.ncdf((v + gx) / st)
                        + mp.ncdf(gx / st)) / z, 0), 1) for v in g]
        err = max(abs(mp.mpf(float(c)) - r) for c, r in zip(walker_gap_cdf(start_gap, t)(g), ref))
    assert err <= 32 * np.spacing(1.0)


def test_statreport_verdict_invariant():
    assert StatReport("x", 0.5, 1.0, 10).verdict == "pass"
    assert StatReport("x", 1.5, 1.0, 10).verdict == "fail"
    d = StatReport("x", 0.5, 1.0, 10, metadata={"k": np.float64(2)}).as_dict()
    assert d["verdict"] == "pass" and d["metadata"]["k"] == 2.0


def test_walker_gap_cdf_limits():
    cdf = walker_gap_cdf(2.0, 1.0)
    assert cdf(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert cdf(np.array([50.0]))[0] == pytest.approx(1.0, abs=1e-12)
    g = np.linspace(0, 10, 100)
    assert np.all(np.diff(cdf(g)) >= -1e-12)


def test_verify_suite_rejects_unknown():
    with pytest.raises(ValueError):
        verify_suite("nope")


def test_verify_suite_combinatorics_all_pass():
    reports = verify_suite("combinatorics", samples=500, seed=0)
    assert reports
    assert all(r.verdict == "pass" for r in reports)
    assert all(isinstance(r.as_dict()["statistic"], float) for r in reports)


def test_verify_all_runs_the_pinned_checks():
    # the benchmark's verify workload requires this count and a clean pass;
    # perfbench/pins.json is only read here
    pins = json.loads((pathlib.Path(__file__).resolve().parent.parent
                       / "perfbench" / "pins.json").read_text())
    reports = verify_suite("all", 1000, seed=pins["verify_seed_pool"][0])
    assert len(reports) == pins["verify_checks"]
    assert [r.test_name for r in reports if r.verdict != "pass"] == []
