import collections
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from viciouskit.combinatorics import (LatticeConfig, WalkCount, _bareiss_det, _binomial_row,
                                      _walk_weights, count_paths, oracle_count_dp, scaled_survival,
                                      survival_probability, time_lattice,
                                      walk_probability)


def test_lattice_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig((1, 3))            # odd positions
    with pytest.raises(ValueError):
        LatticeConfig((2, 2))            # not strictly increasing
    with pytest.raises(ValueError):
        LatticeConfig((-2, 0), wall=True)
    with pytest.raises(ValueError, match="at least one walker"):
        LatticeConfig(())
    assert len(LatticeConfig((0, 2, 4))) == 3


def test_single_walker_counts_are_binomials():
    u = LatticeConfig((0,))
    assert count_paths(2, u, (0,)).value == 2          # C(2,1)
    assert count_paths(4, u, (2,)).value == 4          # C(4,3)
    assert walk_probability(2, u, (0,)) == Fraction(1, 2)


def test_two_walker_total_is_ten_of_sixteen():
    u = LatticeConfig((0, 2))
    dp = oracle_count_dp(2, u)
    assert sum(c.value for c in dp.values()) == 10
    assert survival_probability(2, u) == Fraction(10, 16)
    total = sum(walk_probability(2, u, v) for v in dp)
    assert total == Fraction(10, 16)


def test_infeasible_endpoints_count_zero():
    u = LatticeConfig((0, 2))
    assert count_paths(1, u, (1, 1)).value == 0        # not increasing
    assert count_paths(2, u, (0, 10)).value == 0       # unreachable
    assert walk_probability(2, u, (0, 10)) == 0


def test_wall_hand_enumeration():
    # single walker from 0 staying >= 0 for two steps: only (+1,-1) and (+1,+1)
    u = LatticeConfig((0,), wall=True)
    dp = oracle_count_dp(2, u)
    assert {v: c.value for v, c in dp.items()} == {(0,): 1, (2,): 1}
    assert count_paths(2, u, (0,)).value == 1
    assert count_paths(2, u, (2,)).value == 1
    assert survival_probability(2, u) == Fraction(2, 4)


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("positions", [(0,), (0, 2), (0, 4), (0, 2, 4), (2, 4, 8),
                                       (0, 2, 4, 6), (0, 2, 6, 8)])
def test_determinant_equals_dp(wall, positions):
    u = LatticeConfig(positions, wall=wall)
    for m in (1, 2, 3, 5):
        dp = oracle_count_dp(m, u)
        for v, cnt in dp.items():
            assert count_paths(m, u, v).value == cnt.value
        assert survival_probability(m, u) == Fraction(
            sum(c.value for c in dp.values()), 1 << (m * len(positions)))


def test_count_paths_batch_matches_scalar():
    u = LatticeConfig((0, 2, 4), wall=True)
    dp = oracle_count_dp(4, u)
    for v in sorted(dp):
        assert count_paths(4, u, v).value == dp[v].value


def test_survival_monotone_and_translation_invariance():
    u = LatticeConfig((0, 2, 6))
    probs = [survival_probability(m, u) for m in range(5)]
    assert probs[0] == 1
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    shifted = LatticeConfig((4, 6, 10))
    for m in (1, 3):
        dp = oracle_count_dp(m, u)
        for v, cnt in dp.items():
            v2 = tuple(p + 4 for p in v)
            assert count_paths(m, shifted, v2).value == cnt.value


def test_walkcount_bound_guard():
    with pytest.raises(ValueError):
        WalkCount(value=-1, steps=2, n_walkers=1)
    with pytest.raises(ValueError):
        WalkCount(value=100, steps=2, n_walkers=1)


def test_time_lattice():
    assert time_lattice(8, 1.0) == 64
    assert time_lattice(3, 1.0) == 8       # 2*floor(9/2)
    assert time_lattice(1, 0.3) == 0


def test_scaled_survival_ratio_improves_with_scale():
    u = LatticeConfig((0, 2))
    ratios = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (8, 16, 32):
            _, _, r = scaled_survival(scale, 1.0, u)
            ratios.append(r)
    errs = [abs(1 - r) for r in ratios]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.01


def test_scaled_survival_three_walkers():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, r = scaled_survival(16, 1.0, LatticeConfig((0, 2, 4)))
    assert abs(1 - r) < 0.25


def test_float_fallback_matches_exact_on_overlap():
    # the same Pfaffian in float and in exact integer arithmetic
    for n in range(1, 6):
        for gaps in itertools.product((2, 4), repeat=n - 1):
            positions = tuple(itertools.accumulate(gaps, initial=0))
            for wall in (False, True):
                u = LatticeConfig(positions, wall=wall)
                for m in range(13):
                    exact = float(survival_probability(m, u))
                    if exact >= 1e-5:
                        approx = survival_probability(m, u, exact=False)
                        assert approx == pytest.approx(exact, rel=1e-10)


def _gov_count(p, m):
    # Guttmann-Owczarek-Viennot: p packed free walkers of m steps
    count = Fraction(1)
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            count *= Fraction(i + j + p - 1, i + j - 1)
    return count


@pytest.mark.parametrize("p", range(1, 7))
def test_packed_survival_matches_gov_product(p):
    u = LatticeConfig(tuple(range(0, 2 * p, 2)))
    for m in range(13):
        assert survival_probability(m, u) == _gov_count(p, m) / (1 << (m * p))


def test_packed_survival_eight_walkers_long_time():
    u = LatticeConfig(tuple(range(0, 16, 2)))
    assert survival_probability(400, u) == _gov_count(8, 400) / (1 << 3200)


def _macmahon_square_box(n, p):
    # MacMahon: PP(n, n, p) = prod_{i,j<=n} (i+j+p-1)/(i+j-1).  s = i + j occurs
    # min(s-1, 2n+1-s) times, so the product is summed as prime exponents over s
    top = 2 * n + p
    spf = list(range(top + 1))          # smallest prime factor
    for q in range(2, math.isqrt(top) + 1):
        if spf[q] == q:
            for r in range(q * q, top + 1, q):
                spf[r] = min(spf[r], q)
    exps = collections.Counter()

    def add(x, e):
        while x > 1:
            exps[spf[x]] += e
            x //= spf[x]

    for s in range(2, 2 * n + 1):
        mult = min(s - 1, 2 * n + 1 - s)
        add(s + p - 1, mult)
        add(s - 1, -mult)
    assert min(exps.values(), default=0) >= 0
    return math.prod(q ** e for q, e in exps.items())


@pytest.mark.parametrize("p", range(1, 6))
def test_packed_return_count_is_macmahon_box(p):
    # p packed walkers back to their start in 2n steps: plane partitions in an n x n x p box
    u = LatticeConfig(tuple(range(0, 2 * p, 2)))
    for n in range(16):
        assert count_paths(2 * n, u, u.positions).value == _macmahon_square_box(n, p)


def test_packed_count_n8_m4000_is_macmahon_box():
    # the benchmark's C_count_packed_n8_m4000 instance, a 31708-bit integer
    u = LatticeConfig(tuple(range(0, 16, 2)))
    value = count_paths(4000, u, u.positions).value
    assert value.bit_length() == 31708
    assert value == _macmahon_square_box(2000, 8)


def _fraction_det(m):
    """Determinant by Gaussian elimination over the rationals, an exact reference."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def _random_matrix(rng, n):
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for row in a:                       # shared contents for the reduction to take out
        f = rng.choice([1, 1, 2, -3, 6, 1 << 70])
        row[:] = [f * x for x in row]
    kind = rng.randrange(6)
    if kind == 0:
        a[rng.randrange(n)] = [0] * n
    elif kind == 1:
        j = rng.randrange(n)
        for row in a:
            row[j] = 0
    elif kind == 2 and n > 2:           # singular: one row a combination of two others
        i, k, l = rng.sample(range(n), 3)
        c = rng.randint(-4, 4)
        a[i] = [c * x + 5 * y for x, y in zip(a[k], a[l])]
    elif kind == 3 and n > 1:           # a zero leading entry, so a row swap
        a[0][0] = 0
    return a


def test_bareiss_det_matches_fraction_elimination():
    rng = random.Random(2024)
    for _ in range(600):
        a = _random_matrix(rng, rng.randint(1, 6))
        ref = _fraction_det(a)
        assert ref.denominator == 1
        assert _bareiss_det(a) == ref, a
    assert _bareiss_det([[-7]]) == -7 and _bareiss_det([[0]]) == 0
    assert _bareiss_det([[0, 3], [5, 0]]) == -15
    assert _bareiss_det([[2, 4], [3, 6]]) == 0


def _comb(m, key):
    # C(m, key/2): zero for an odd key or one out of range
    return math.comb(m, key // 2) if key % 2 == 0 and 0 <= key <= 2 * m else 0


@pytest.mark.parametrize("wall", [False, True])
def test_count_paths_matches_fraction_elimination(wall):
    rng = random.Random(7 + wall)
    for m in (0, 1, 2, 7, 40, 399, 1000, 4000):
        for _ in range(6):
            n = rng.randint(1, 4)
            spread = min(m, 60) + 8
            u = LatticeConfig(tuple(2 * x for x in sorted(rng.sample(range(spread), n))),
                              wall=wall)
            v = tuple(2 * x + m % 2 for x in sorted(rng.sample(range(spread), n)))
            entries = [[_comb(m, m + a - b) - (_comb(m, m + a + b + 2) if wall else 0)
                        for a in u.positions] for b in v]
            assert count_paths(m, u, v).value == _fraction_det(entries), (m, u, v)


@pytest.mark.parametrize("m", [0, 1, 9, 40])
def test_binomial_row_ranges(m):
    assert _binomial_row(m) == [math.comb(m, k) for k in range(m + 1)]
    for lo in range(m + 1):
        for hi in range(lo - 1, m + 1):
            assert _binomial_row(m, lo, hi) == [math.comb(m, k) for k in range(lo, hi + 1)]


@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 1023, 1024, 16384, 16385])
def test_float_binomial_row_matches_exact(m):
    row = _walk_weights(m, LatticeConfig((0,)), exact=False)[0]
    assert row.shape == (m + 1,) and np.all(np.isfinite(row)) and np.all(row >= 0)
    exact = 1
    for k in range(m + 1):
        if row[k] > 1e-300:
            ref = Fraction(exact, 1 << m)
            assert abs(Fraction(row[k]) - ref) <= Fraction(1, 10**14) * ref, k
        exact = exact * (m - k) // (k + 1)


def test_scaled_survival_float_matches_exact_pfaffian():
    # survival_probability(16384, LatticeConfig((32, 64), wall=True)) in exact arithmetic
    surv, _, _ = scaled_survival(32, 16.0, LatticeConfig((32, 64), wall=True))
    assert surv == pytest.approx(0.0024929347693615493, rel=1e-12)
