"""Statistics and verification harness.

Kolmogorov-Smirnov machinery (with optional evaluation grids for lattice
observables) and the named verification suites aggregating every identity
in the package.  The suites check the GOE/GUE spectra, the Bessel endpoint
and the PM bridge (`rmt.pm_bridge_check`, the g law before the horizon)
against the exact coordinate laws of `densities.coordinate_cdf`, and de Bruijn's
reduction and the Mehta integrals at N <= 6 through its tables.
The KS statistics are computed here with numpy, and the asymptotic
critical values are quantiles of the Kolmogorov limit law, inverted from
its series in plain Python.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import chamber_integral

__all__ = [
    "StatReport",
    "ks_test",
    "ks_two_sample",
    "verify_suite",
    "SUITES",
]


@dataclass
class StatReport:
    test_name: str
    statistic: float
    critical_value: float
    n_samples: int
    verdict: str = field(init=False)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.verdict = "pass" if self.statistic <= self.critical_value else "fail"

    def as_dict(self):
        return {
            "test_name": self.test_name,
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "n_samples": self.n_samples,
            "verdict": self.verdict,
            "metadata": {k: _plain(v) for k, v in self.metadata.items()},
        }


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def _kolmogorov_tail(x):
    """P(sup |B(F)| > x), from whichever of the law's two series converges fast at x."""
    if x >= 1:
        # 2 sum_{k>=1} (-1)^(k-1) e^{-2 k^2 x^2}; five terms reach e^{-50}
        return 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * x * x) for k in range(1, 6))
    # 1 - sqrt(2 pi)/x sum_{k>=1} e^{-(2k-1)^2 pi^2 / 8x^2}; four terms reach e^{-60}
    return 1 - math.sqrt(2 * math.pi) / x * sum(
        math.exp(-(2 * k - 1) ** 2 * math.pi ** 2 / (8 * x * x)) for k in range(1, 5))


@functools.lru_cache(maxsize=None)
def _ks_coefficient(level):
    """Upper `level` quantile of the Kolmogorov law of sup |B(F)|: 1.628 at 1%.

    Bisection of the decreasing tail down to two adjacent floats, of which
    the one whose tail is nearer `level` is returned.
    """
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1), got %r" % (level,))
    lo, hi = 0.1, 10.0
    while lo < (mid := (lo + hi) / 2) < hi:
        if _kolmogorov_tail(mid) > level:
            lo = mid
        else:
            hi = mid
    return lo if _kolmogorov_tail(lo) - level < level - _kolmogorov_tail(hi) else hi


def ks_test(samples, cdf, level=0.01, name="ks", eval_points=None, metadata=None):
    """One-sample Kolmogorov-Smirnov test against a callable CDF.

    With eval_points the statistic is the discrepancy on that grid only --
    use lattice midpoints for discrete-valued samples, where the empirical
    CDF is free of the half-atom bias of the raw supremum.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 10:
        raise ValueError("need at least 10 samples")
    if eval_points is None:
        f = np.asarray(cdf(x), dtype=float)
        if np.any(np.diff(f) < -1e-12) or f.min() < -1e-9 or f.max() > 1 + 1e-9:
            raise ValueError("cdf must be monotone into [0, 1]")
        d = max(np.abs(np.arange(1, n + 1) / n - f).max(),
                np.abs(np.arange(n) / n - f).max())
    else:
        pts = np.asarray(eval_points, dtype=float)
        emp = np.searchsorted(x, pts, side="right") / n
        d = np.abs(emp - np.asarray(cdf(pts), dtype=float)).max()
    crit = _ks_coefficient(level) / math.sqrt(n)
    md = dict(metadata or {})
    md["level"] = level
    if eval_points is not None:
        md["eval_grid"] = "supplied (%d points)" % len(eval_points)
    return StatReport(name, float(d), crit, n, metadata=md)


def ks_two_sample(a, b, level=0.01, name="ks2", metadata=None):
    """Two-sample Kolmogorov-Smirnov test with asymptotic critical value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 10 or len(b) < 10:
        raise ValueError("need at least 10 samples per side")
    # sup |F_a - F_b| over the pooled sample, ties counted on both sides
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    d = float(np.abs(np.searchsorted(a, pooled, side="right") / len(a)
                     - np.searchsorted(b, pooled, side="right") / len(b)).max())
    crit = _ks_coefficient(level) * math.sqrt((len(a) + len(b)) / (len(a) * len(b)))
    md = dict(metadata or {})
    md["level"] = level
    return StatReport(name, d, crit, len(a) + len(b), metadata=md)


# ---------------------------------------------------------------------------
# Verification suites


SUITES = ("identities", "combinatorics", "montecarlo", "rmt", "all")


def _report(name, residual, tol, n=0, **md):
    md.update(md.pop("metadata", {}))
    return StatReport(name, float(residual), float(tol), n, metadata=md)


NORMALIZATION_ORDER = 40   # Gauss-Legendre order of the N = 2 normalization checks


def _normalizations():
    """The N = 2 densities whose chamber mass verify checks: name -> (density, lo, hi).

    Each must integrate to 1 over {lo <= y_1 < y_2 <= hi}: the four origin
    densities at t = 1 (identities suite) and GUE's eigen_density (rmt suite).
    """
    from .densities import ModelSpec, g_density, p_density
    from .rmt import eigen_density

    out = {}
    for wall in (False, True):
        for fam, f in (("g", g_density), ("p", p_density)):
            spec = ModelSpec(2, horizon=2.0 if fam == "g" else math.inf, wall=wall)
            out["normalization_%s%s_n2" % (fam, "_wall" if wall else "")] = (
                functools.partial(f, spec, 0.0, None, 1.0), 0.0 if wall else -8.0, 8.0)
    out["gue_density_normalization_n2"] = (lambda y: eigen_density("GUE", y) * 2, -7.0, 7.0)
    return out


def _normalization_report(name, density, lo, hi):
    """|mass - 1| of an N = 2 density over {lo <= y_1 < y_2 <= hi}, against tolerance 1e-6.

    The mass is tensor Gauss-Legendre quadrature at NORMALIZATION_ORDER,
    where every density of _normalizations has converged: from order 39
    on, each mass is within 1e-13 of its value at order 120 (the free g
    density is the slowest, 3.5e-13 at 38), and 40 is one order past that,
    at a ninth of order 120's points.
    """
    mass = chamber_integral(density, 2, lo, hi, order=NORMALIZATION_ORDER)
    return _report(name, abs(mass - 1.0), 1e-6)


def _suite_identities(samples, seed):
    from .combinatorics import LatticeConfig, scaled_survival
    from .densities import (ModelSpec, _origin_mass, de_bruijn_check, g_density,
                            imhof_check, p_density, survival_asymptotics)
    from .montecarlo import _philox
    from .rmt import eigen_density
    from .special_functions import constants

    # normalization of the four origin densities, N = 2
    out = [_normalization_report(name, *check) for name, check in _normalizations().items()
           if name.startswith("normalization_")]
    rng = _philox(seed, 10)

    # Imhof product identity on randomized instances
    worst = {(n, wall): 0.0 for n in (1, 2, 3) for wall in (False, True)}
    reps = max(samples // 500, 4)
    for n in (1, 2, 3):
        for wall in (False, True):
            for _ in range(reps):
                T = 0.5 + 2 * rng.random()
                k = int(rng.integers(1, 4))
                times = np.sort(rng.random(k)) * 0.9 * T
                times = list(times[times > 0.05]) + [T]
                pts = []
                for _t in times:
                    x = np.sort(rng.random(n) * 2 + (0.1 if wall else -1.0))
                    while np.any(np.diff(x) < 0.05):
                        x = np.sort(rng.random(n) * 2 + (0.1 if wall else -1.0))
                    pts.append(x)
                spec = ModelSpec(n, horizon=T, wall=wall)
                worst[(n, wall)] = max(worst[(n, wall)], imhof_check(spec, times, pts))
            out.append(_report("imhof_n%d%s" % (n, "_wall" if wall else ""),
                               worst[(n, wall)], 1e-8, reps))

    # de Bruijn reduction; at t = 2 the wall Pfaffian's cancellation grows past N = 4
    x = (0.3, 1.1, 2.2, 2.9, 3.8, 4.4)
    for name, t, walls, top in (("de_bruijn_free_n6", 0.5, (False,), 6),
                                ("de_bruijn_wall_n6", 0.5, (True,), 6),
                                ("de_bruijn_t2_n4", 2.0, (False, True), 4)):
        res = [de_bruijn_check(t, x[:n], wall) for wall in walls for n in range(1, top + 1)]
        out.append(_report(name, max(res), 1e-10, metadata={"residuals": res}))

    # survival asymptotics sweep: error shrinks along eps = .2, .1, .05
    for n in (2, 3):
        for wall in (False, True):
            errs = []
            base = np.arange(1, n + 1, dtype=float)
            for eps in (0.2, 0.1, 0.05):
                _, _, r = survival_asymptotics(1.0, eps * base / base.max(), wall)
                errs.append(abs(1 - r))
            ok = errs[0] > errs[1] > errs[2] and errs[2] < 0.05
            out.append(_report("asymptotics_n%d%s" % (n, "_wall" if wall else ""),
                               errs[2] if ok else 1.0, 0.05, metadata={"sweep": errs}))

    # GOE/GUE pointwise identities
    for n in (1, 2, 3):
        y = np.sort(rng.random(n) * 2 - 1.0)
        while n > 1 and np.any(np.diff(y) < 0.1):
            y = np.sort(rng.random(n) * 2 - 1.0)
        T, t = 1.7, 0.8
        g = g_density(ModelSpec(n, horizon=T), 0.0, None, T, y)
        out.append(_report("goe_identity_n%d" % n,
                           abs(g / (math.factorial(n) * eigen_density("GOE", y, T)) - 1.0),
                           1e-10))
        p = p_density(ModelSpec(n), 0.0, None, t, y)
        out.append(_report("gue_identity_n%d" % n,
                           abs(p / (math.factorial(n) * eigen_density("GUE", y, t)) - 1.0),
                           1e-10))

    # Mehta integrals: each origin constant is n! (2^n n! behind the wall) over
    # the mehta_integral of its law, so it times the law's chamber mass is 1
    for n in range(1, 7):
        consts = constants(n)
        res = {name: abs(getattr(consts, name) * _origin_mass(n, wall, beta) - 1.0)
               for name, wall, beta in (("c", False, 1), ("c_prime", False, 2),
                                        ("c_hat", True, 1), ("c_hat_prime", True, 2))}
        out.append(_report("mehta_n%d" % n, max(res.values()), 1e-12, metadata=res))

    # lattice survival vs scaling prediction; the wall run keeps the start
    # proportional to the scale (the discrete boundary shifts fixed starts
    # by one lattice unit, so fixed-u ratios do not converge behind the wall)
    _, _, ratio = scaled_survival(8, 1.0, LatticeConfig((0, 2)))
    out.append(_report("scaled_survival", abs(1 - ratio), 0.05))
    _, _, ratio = scaled_survival(32, 16.0, LatticeConfig((32, 64), wall=True))
    out.append(_report("scaled_survival_wall", abs(1 - ratio), 0.05))
    return out


def _suite_combinatorics(samples, seed):
    from fractions import Fraction

    from .combinatorics import (LatticeConfig, count_paths, oracle_count_dp,
                                survival_probability)

    out = []
    mismatches = 0
    checked = 0
    starts = [(0, 2), (0, 4), (2, 6), (0, 2, 4), (0, 4, 6)]
    for wall in (False, True):
        for pos in starts:
            cfg = LatticeConfig(pos, wall=wall)
            for m in (1, 2, 3, 4, 6):
                dp = oracle_count_dp(m, cfg)
                det_total = 0
                for v, cnt in dp.items():
                    det = count_paths(m, cfg, v)
                    checked += 1
                    if det.value != cnt.value:
                        mismatches += 1
                    det_total += det.value
                surv = survival_probability(m, cfg)
                dp_total = sum(c.value for c in dp.values())
                if surv != Fraction(dp_total, 1 << (m * len(pos))):
                    mismatches += 1
    out.append(_report("count_vs_dp", mismatches, 0, checked))
    return out


def _suite_montecarlo(samples, seed):
    from .combinatorics import LatticeConfig, survival_probability
    from .densities import ModelSpec, coordinate_cdf, survival
    from .montecarlo import (SimConfig, _philox, endpoint_values, noncollision_mc,
                             sample_origin_law, simulate_sde, simulate_walkers)

    out = []
    level = 0.01 / 4     # Bonferroni across the KS tests of this suite

    # walker acceptance vs exact survival
    for wall in (False, True):
        cfg = SimConfig("walker", ModelSpec(2, horizon=2.0, wall=wall),
                        start=LatticeConfig((0, 2), wall=wall),
                        samples=min(samples, 2000), seed=seed)
        ens = simulate_walkers(cfg)
        exact = float(survival_probability(2, cfg.start))
        se = math.sqrt(exact * (1 - exact) / ens.proposed)
        out.append(_report("walker_acceptance%s" % ("_wall" if wall else ""),
                           abs(ens.accepted / ens.proposed - exact), 3 * se,
                           ens.proposed, exact=exact))

    # Brownian non-collision vs Pfaffian: bridge weights make the estimate
    # unbiased at any step, so ten steps and 3 SE with no allowance
    for n, x, wall in ((2, (0.0, 1.0), False), (3, (0.0, 1.0, 2.0), False),
                       (2, (0.5, 1.5), True)):
        est, se = noncollision_mc(1.0, x, samples=min(samples * 4, 40_000),
                                  step=0.1, wall=wall, seed=seed)
        exact = survival(1.0, np.array(x, dtype=float), wall)
        out.append(_report("noncollision_n%d%s" % (n, "_wall" if wall else ""),
                           abs(est - exact), 3 * se, metadata={"exact": exact}))

    # SDE endpoints vs exact origin laws
    rng = _philox(seed, 30)
    k = min(samples, 3000)
    ens = simulate_sde(SimConfig("sde-p", ModelSpec(2), step=1e-3, t_end=1.0,
                                 samples=k, seed=seed))
    ref = sample_origin_law(ModelSpec(2), 1.0, k, rng)
    out.append(ks_two_sample(endpoint_values(ens, 1), ref[:, 1], level=level,
                             name="sde_p_n2_endpoint"))
    bessel = ModelSpec(1, wall=True)       # the 3d Bessel process: chi law with 3 dof at t = 1
    ensb = simulate_sde(SimConfig("sde-p", bessel, step=1e-3, t_end=1.0, samples=k, seed=seed))
    out.append(ks_test(endpoint_values(ensb, 0), lambda x: coordinate_cdf(bessel, 1.0, x)[..., 0],
                       level=level, name="sde_bessel_endpoint"))

    # walker endpoint gap vs the exact conditioned-gap law (lattice midpoints)
    L = 16
    spec = ModelSpec(2, horizon=1.0)
    cfgw = SimConfig("walker", spec, start=LatticeConfig((0, 2)), scale=L,
                     samples=min(samples, 4000), seed=seed)
    ensw = simulate_walkers(cfgw)
    gap = (endpoint_values(ensw, 1) - endpoint_values(ensw, 0)) / math.sqrt(2)
    cdf = walker_gap_cdf(2.0 / L, float(ensw.time_grid[-1]))
    spacing = 2.0 / (L * math.sqrt(2))
    grid = (np.arange(6 * L) + 0.5) * spacing
    out.append(ks_test(gap, cdf, level=level, name="walker_gap_fclt_L16",
                       eval_points=grid))
    return out


def walker_gap_cdf(start_gap, t):
    """CDF of (y2 - y1)/sqrt(2) under the two-walker conditioned law.

    Closed form: the rotated gap coordinate is a Brownian motion started at
    start_gap/sqrt(2) conditioned to stay positive up to t (reflection
    difference of Gaussians).
    """
    from .special_functions import psi

    gx = start_gap / math.sqrt(2)
    scale = math.sqrt(2 * t)
    z = psi(gx / scale)

    def cdf(g):
        # [Phi((g - gx)/sqrt t) - Phi((g + gx)/sqrt t) + 2 Phi(gx/sqrt t) - 1] / z with the
        # normal CDF Phi(v) = (1 + psi(v / sqrt 2)) / 2
        g = np.asarray(g, dtype=float)
        return np.clip(1 - (psi((g + gx) / scale) - psi((g - gx) / scale)) / (2 * z), 0.0, 1.0)

    return cdf


def _suite_rmt(samples, seed):
    from .densities import ModelSpec, coordinate_cdf
    from .rmt import pm_bridge_check, sample_ensemble

    out = []
    level = 0.01 / 8

    # sampled spectra vs their exact coordinate laws: GOE(v) is the g law at
    # t = T = v, GUE(v) the p law at t = v
    k = min(samples, 5000)
    for kind in ("GOE", "GUE"):
        for n in (2, 3):
            sample = sample_ensemble(kind, n, variance=1.0, samples=k, seed=seed)
            spec = ModelSpec(n, horizon=1.0 if kind == "GOE" else math.inf)
            for c in range(n):
                out.append(ks_test(sample.eigenvalues[:, c],
                                   lambda x, c=c: coordinate_cdf(spec, 1.0, x)[..., c],
                                   level=level, name="%s_n%d_coord%d" % (kind, n, c)))

    # eigen_density normalization over the chamber (N = 2)
    name = "gue_density_normalization_n2"
    out.append(_normalization_report(name, *_normalizations()[name]))

    # PM(alpha=1) degenerates to GUE; its total variance 2v^2 = 1/(1+alpha^2)
    # halves at alpha = 1, so the matching GUE runs at variance/2
    pm1 = sample_ensemble("PM", 2, alpha=1.0, samples=k, seed=seed).eigenvalues
    gue = sample_ensemble("GUE", 2, variance=0.5, samples=k, seed=seed + 1).eigenvalues
    out.append(ks_two_sample(pm1[:, 1], gue[:, 1], level=level, name="pm_alpha1_is_gue"))

    # bridge between the finite-horizon law and the interpolating ensemble
    for rep in pm_bridge_check(2, 1.0, 0.5, samples=min(samples, 5000),
                               seed=seed, level=level):
        out.append(rep)
    return out


def verify_suite(suite, samples=2000, seed=0):
    """Run one named verification battery; returns a list of StatReports."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)" % (suite, ", ".join(SUITES)))
    runners = {
        "identities": _suite_identities,
        "combinatorics": _suite_combinatorics,
        "montecarlo": _suite_montecarlo,
        "rmt": _suite_rmt,
    }
    names = list(runners) if suite == "all" else [suite]
    reports = []
    for nm in names:
        reports.extend(runners[nm](samples, seed))
    return reports
