"""Acceptance battery.

Twelve numbered criteria covering exact counting, Pfaffian survival,
normalization, the meander/Bessel product identity, random-matrix
identities, lattice-to-diffusion endpoint convergence, the interacting
SDEs, small-configuration asymptotics, the integral-reduction identity,
Gaussian ensemble integrals, the interpolating-ensemble bridge, and CLI
determinism.  Each test prints a single verdict line.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sps
from scipy.stats import qmc

from tensor_references import MEHTA_LAWS
from viciouskit.cli import main as cli_main
from viciouskit.combinatorics import (LatticeConfig, count_paths, oracle_count_dp,
                                      survival_probability)
from viciouskit.densities import (ModelSpec, _origin_mass, coordinate_cdf, de_bruijn_check,
                                  g_density, imhof_check, p_density, survival,
                                  survival_asymptotics)
from viciouskit.harness import walker_gap_cdf
from viciouskit.montecarlo import (SimConfig, endpoint_values, noncollision_mc,
                                   simulate_sde, simulate_walkers)
from viciouskit.quadrature import ordered_grid
from viciouskit.rmt import eigen_density, pm_bridge_check, sample_ensemble
from viciouskit.special_functions import mehta_integral, psi

KS_1PCT = float(sps.kstwobign.isf(0.01))     # asymptotic 1% critical coefficient


def _verdict(num, label, ok, detail=""):
    line = "criterion %2d: %s  %s%s" % (num, "PASS" if ok else "FAIL", label,
                                        "  [%s]" % detail if detail else "")
    print(line)
    assert ok, line


def test_criterion_01_exact_counts_match_dp_oracle():
    t0 = time.time()
    checked = 0
    mismatches = 0
    for n in (1, 2, 3, 4):
        for gaps in itertools.product((2, 4, 6), repeat=n - 1):
            positions = tuple(np.concatenate([[0], np.cumsum(gaps)]).astype(int))
            for wall in (False, True):
                u = LatticeConfig(positions, wall=wall)
                for m, dp in enumerate(oracle_count_dp(10, u, return_steps=True), 1):
                    for v, cnt in dp.items():
                        checked += 1
                        if count_paths(m, u, v).value != cnt.value:
                            mismatches += 1
    elapsed = time.time() - t0
    _verdict(1, "determinant counts = DP oracle (N<=4, m<=10, gaps<=6)",
             mismatches == 0 and elapsed < 60,
             "%d endpoints, %d mismatches, %.1fs" % (checked, mismatches, elapsed))


def test_criterion_02_pfaffian_survival():
    # N=2 free: exact reduction to the error-function closed form
    rng = np.random.Generator(np.random.Philox(key=[2, 0]))
    worst = 0.0
    for _ in range(50):
        t = 0.1 + 3 * rng.random()
        x = np.sort(rng.normal(size=2) * 2)
        while x[1] - x[0] < 1e-3:
            x = np.sort(rng.normal(size=2) * 2)
        ref = psi((x[1] - x[0]) / (2 * math.sqrt(t)))
        worst = max(worst, abs(survival(t, x) / ref - 1.0))
    ok = worst < 1e-13

    # N=3 (and wall N=2,3): Brownian Monte Carlo with 1e5 paths; bridge
    # weights make it unbiased at any step, so ten steps and 3 SE
    t0 = time.time()
    details = ["closed-form rel %.1e" % worst]
    for x, wall in (((0.0, 1.0, 2.0), False), ((0.5, 1.5), True),
                    ((0.5, 1.5, 2.5), True)):
        est, se = noncollision_mc(1.0, x, samples=100_000, step=0.1, wall=wall,
                                  seed=11)
        exact = survival(1.0, np.array(x), wall)
        ok = ok and abs(est - exact) < 3 * se
        details.append("n%d%s |mc-exact|=%.4f tol=%.4f"
                       % (len(x), "w" if wall else "", abs(est - exact), 3 * se))
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _verdict(2, "Pfaffian survival: closed form + MC non-collision",
             ok, "; ".join(details) + ", %.0fs" % elapsed)


def test_criterion_03_normalization():
    # N=2 by chamber quadrature, all four origin families
    worst2 = 0.0
    for wall in (False, True):
        pts, wts = ordered_grid(2, 0.0 if wall else -8.0, 8.0, order=120)
        flat = pts.reshape(-1, 2)
        for fam, f in (("g", g_density), ("p", p_density)):
            spec = ModelSpec(2, horizon=2.0 if fam == "g" else math.inf, wall=wall)
            mass = float((f(spec, 0.0, None, 1.0, flat).reshape(wts.shape) * wts).sum())
            worst2 = max(worst2, abs(mass - 1.0))
    ok = worst2 < 1e-6

    # N=3 by importance-sampled quasi-Monte Carlo over a sorted Gaussian
    # (folded behind the wall) proposal
    t, horizon = 0.5, 1.0
    s = math.sqrt(2 * t)
    worst3 = 0.0
    for fam, wall, m in (("p", False, 19), ("p", True, 21),
                         ("g", False, 17), ("g", True, 17)):
        f = g_density if fam == "g" else p_density
        spec = ModelSpec(3, horizon=horizon if fam == "g" else math.inf, wall=wall)
        u = qmc.Sobol(3, scramble=True, seed=5).random_base2(m)
        if wall:
            z = s * sps.norm.ppf(0.5 * (u + 1.0))
            q = math.factorial(3) * np.prod(2 * sps.norm.pdf(z, scale=s), axis=1)
        else:
            z = sps.norm.ppf(u, scale=s)
            q = math.factorial(3) * np.prod(sps.norm.pdf(z, scale=s), axis=1)
        y = np.sort(z, axis=1)
        mass = float((f(spec, 0.0, None, t, y) / q).mean())
        worst3 = max(worst3, abs(mass - 1.0))
    ok = ok and worst3 < 1e-3
    _verdict(3, "origin densities integrate to one",
             ok, "N=2 quad %.1e (<1e-6), N=3 QMC %.1e (<1e-3)" % (worst2, worst3))


def test_criterion_04_product_identity_randomized():
    rng = np.random.Generator(np.random.Philox(key=[4, 0]))
    worst = {False: 0.0, True: 0.0}
    for wall in (False, True):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            T = 0.5 + 2 * rng.random()
            k = int(rng.integers(1, 4))                 # up to 3 marked times
            times = list(np.sort(0.05 + 0.9 * rng.random(k)) * T) + [T]
            pts = []
            for _t in times:
                x = np.sort(rng.random(n) * 2 + (0.1 if wall else -1.0))
                while np.any(np.diff(x) < 0.05):
                    x = np.sort(rng.random(n) * 2 + (0.1 if wall else -1.0))
                pts.append(x)
            spec = ModelSpec(n, horizon=T, wall=wall)
            worst[wall] = max(worst[wall], imhof_check(spec, times, pts))
    ok = worst[False] < 1e-8 and worst[True] < 1e-8
    _verdict(4, "meander/Bessel product identity, 100 instances per family",
             ok, "free %.1e, wall %.1e (<1e-8)" % (worst[False], worst[True]))


def test_criterion_05_random_matrix_identities():
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(20):
            y = np.sort(rng.normal(size=n))
            while n > 1 and np.any(np.diff(y) < 0.05):
                y = np.sort(rng.normal(size=n))
            T, t = 1.3, 0.7
            g = g_density(ModelSpec(n, horizon=T), 0.0, None, T, y)
            p = p_density(ModelSpec(n), 0.0, None, t, y)
            worst = max(worst,
                        abs(g / (math.factorial(n) * eigen_density("GOE", y, T)) - 1),
                        abs(p / (math.factorial(n) * eigen_density("GUE", y, t)) - 1))
    ok = worst < 1e-10

    draws = 10_000
    crit = KS_1PCT / math.sqrt(draws)
    worst_d = 0.0
    # exact coordinate laws: GOE(1) is the g law at t = T = 1, GUE(1) the p law at t = 1
    for kind in ("GOE", "GUE"):
        for n in (2, 3):
            spec = sample_ensemble(kind, n, variance=1.0, samples=draws, seed=50)
            law = ModelSpec(n, horizon=1.0 if kind == "GOE" else math.inf)
            for c in range(n):
                cdf = lambda x: coordinate_cdf(law, 1.0, x)[..., c]
                d = sps.kstest(spec.eigenvalues[:, c], cdf).statistic
                worst_d = max(worst_d, d)
    ok = ok and worst_d < crit
    _verdict(5, "endpoint densities equal N! x ensemble densities",
             ok, "pointwise %.1e (<1e-10), spectra KS %.4f (<%.4f)"
             % (worst, worst_d, crit))


def test_criterion_06_lattice_endpoint_convergence():
    # acceptance-conditioned endpoint gap vs the exact conditioned-gap law;
    # the plain KS distance carries a half-atom lattice bias of order 1/L,
    # so the pass verdict at the largest scale evaluates the discrepancy on
    # the lattice midpoints
    accepted = 10_000
    stats = {}
    for L in (16, 32):
        cfg = SimConfig("walker", ModelSpec(2, horizon=1.0),
                        start=LatticeConfig((0, 2)), scale=L,
                        samples=accepted, seed=6, streams=4)
        ens = simulate_walkers(cfg)
        gap = (endpoint_values(ens, 1) - endpoint_values(ens, 0)) / math.sqrt(2)
        cdf = walker_gap_cdf(2.0 / L, float(ens.time_grid[-1]))
        plain = sps.kstest(gap, cdf).statistic
        spacing = 2.0 / (L * math.sqrt(2))
        mids = (np.arange(6 * L) + 0.5) * spacing
        ecdf = np.searchsorted(np.sort(gap), mids, side="right") / len(gap)
        mid_d = float(np.abs(ecdf - cdf(mids)).max())
        stats[L] = (plain, mid_d)
    crit = KS_1PCT / math.sqrt(accepted)
    ok = stats[16][0] > stats[32][0] and stats[32][1] < crit
    _verdict(6, "walker endpoint law converges to the conditioned diffusion",
             ok, "plain D: L16 %.4f > L32 %.4f; midpoint D L32 %.4f (<%.4f)"
             % (stats[16][0], stats[32][0], stats[32][1], crit))


def test_criterion_07_interacting_sde_endpoints():
    paths = 10_000
    crit = KS_1PCT / math.sqrt(paths)
    worst = 0.0
    ordered = True
    for n in (2, 3):
        ens = simulate_sde(SimConfig("sde-p", ModelSpec(n), step=1e-3, t_end=1.0,
                                     samples=paths, seed=70 + n, streams=4))
        ordered = ordered and bool(np.all(np.diff(ens.paths, axis=1) > 0))
        for c in range(n):
            cdf = lambda x: coordinate_cdf(ModelSpec(n), 1.0, x)[..., c]      # GUE(1)
            d = sps.kstest(ens.paths[:, c, -1], cdf).statistic
            worst = max(worst, d)
    # wall, single particle: 3-d Bessel radial law
    ensb = simulate_sde(SimConfig("sde-p", ModelSpec(1, wall=True), step=1e-3,
                                  t_end=1.0, samples=paths, seed=77, streams=4))
    db = sps.kstest(ensb.paths[:, 0, -1], sps.chi(3).cdf).statistic
    ok = ordered and worst < crit and db < crit
    _verdict(7, "interacting SDE endpoint marginals + hard ordering",
             ok, "KS %.4f, Bessel %.4f (<%.4f), ordered=%s"
             % (worst, db, crit, ordered))


def test_criterion_08_small_configuration_asymptotics():
    ok = True
    details = []
    for n in (1, 2, 3):
        for wall in (False, True):
            base = np.arange(1, n + 1, dtype=float) / n
            errs = []
            for eps in (0.2, 0.1, 0.05):
                _, _, r = survival_asymptotics(1.0, eps * base, wall)
                errs.append(abs(1 - r))
            # the sweep is exactly 0 for a single free walker; require strict
            # decrease only above floating-point noise
            mono = all(a > b or a < 1e-10 for a, b in zip(errs, errs[1:]))
            ok = ok and mono and errs[-1] < 0.05
            details.append("n%d%s %.3f" % (n, "w" if wall else "", errs[-1]))
    _verdict(8, "survival ~ scaled chamber polynomial as the start shrinks",
             ok, ", ".join(details) + " (<0.05, monotone)")


def test_criterion_09_integral_reduction_identity():
    # de Bruijn's Pfaffian of the km_density chamber integral against the
    # closed-form survival: N <= 6 at t = 1/2, N <= 4 at t = 2
    x = (0.3, 1.1, 2.2, 2.9, 3.8, 4.4)
    worst = {}
    for t, sizes in ((0.5, range(1, 7)), (2.0, range(1, 5))):
        for wall in (False, True):
            worst[t, wall] = max(de_bruijn_check(t, x[:n], wall) for n in sizes)
    _verdict(9, "chamber integral of determinant reduces to a Pfaffian",
             max(worst.values()) < 1e-10,
             ", ".join("t=%g%s %.1e" % (t, " wall" if wall else "", r)
                       for (t, wall), r in worst.items()) + " (<1e-10)")


def test_criterion_10_gaussian_ensemble_integrals():
    # the closed forms of constants() against the chamber masses of
    # coordinate_cdf's four origin bases, N <= 6
    worst = 0.0
    for n in range(1, 7):
        for (wall, beta), (weight, gamma, a) in MEHTA_LAWS.items():
            closed = mehta_integral(n, gamma, a, weight=weight)
            mass = _origin_mass(n, wall, beta) * math.factorial(n) * 2 ** (n * wall)
            worst = max(worst, abs(mass / closed - 1.0))
    _verdict(10, "closed-form Gaussian ensemble integrals vs de Bruijn/Andreief masses",
             worst < 1e-12, "max rel %.1e (<1e-12)" % worst)


def test_criterion_11_interpolating_ensemble_bridge():
    ok = True
    worst = 0.0
    for t in (0.25, 0.5, 0.75):
        reports = pm_bridge_check(2, 1.0, t, samples=10_000, seed=8, level=0.01)
        ok = ok and all(r.verdict == "pass" for r in reports)
        worst = max(worst, max(r.statistic / r.critical_value for r in reports))
    _verdict(11, "finite-horizon endpoints match the interpolating ensemble",
             ok, "max stat/crit %.2f (<1)" % worst)


def test_criterion_12_cli_determinism(tmp_path):
    runs = [
        ["simulate", "--model", "walker", "--n", "2", "--start", "0,2",
         "--horizon", "1", "--scale", "8", "--samples", "50", "--seed", "4",
         "--streams", "3", "--format", "csv"],
        ["simulate", "--model", "sde-p", "--n", "2", "--time", "0.5",
         "--step", "0.005", "--samples", "25", "--seed", "4"],
        ["rmt", "--ensemble", "PM", "--alpha", "0.6", "--n", "3",
         "--samples", "200", "--seed", "9", "--format", "csv"],
        ["survival", "--at", "0,1", "--time", "2"],
    ]
    ok = True
    for i, argv in enumerate(runs):
        a, b = tmp_path / ("a%d" % i), tmp_path / ("b%d" % i)
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
        if argv[-1] != "csv":
            ok = ok and json.loads(a.read_text())["schema_version"] == 1
    _verdict(12, "repeated CLI invocations are byte-identical", ok,
             "%d commands, JSON+CSV" % len(runs))
