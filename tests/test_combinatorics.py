import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from viciouskit.combinatorics import (LatticeConfig, WalkCount, _walk_weights, count_paths,
                                      oracle_count_dp, scaled_survival,
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
