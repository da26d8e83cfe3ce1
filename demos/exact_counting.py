"""Exact enumeration of nonintersecting lattice walks.

Counts tuples of +-1 walks that keep strict order (optionally staying
behind a reflecting wall at the origin), compares the determinant counts
with brute-force enumeration, and watches the lattice survival probability
approach its diffusion-limit prediction as the lattice is refined.
"""

import numpy as np

from viciouskit import (LatticeConfig, count_paths, oracle_count_dp,
                        scaled_survival, survival_probability)


def main():
    u = LatticeConfig((0, 2))
    print("two walkers started at 0 and 2, m = 4 steps")
    print("-" * 46)
    dp = oracle_count_dp(4, u)
    total = 0
    for v in sorted(dp):
        det = count_paths(4, u, v).value
        total += det
        print("  end %-10s det count %4d   brute force %4d" % (v, det, dp[v].value))
    print("  total surviving tuples: %d of %d" % (total, 2 ** 8))
    print("  exact survival:", survival_probability(4, u))

    uw = LatticeConfig((0, 2), wall=True)
    print("\nsame walkers behind a wall (positions stay >= 0)")
    print("  exact survival:", survival_probability(4, uw))

    print("\nlattice refinement at diffusion time t = 1")
    print("  %-6s %-12s %-12s %s" % ("scale", "survival", "prediction", "ratio"))
    for scale in (4, 8, 16, 32):
        s, pred, ratio = scaled_survival(scale, 1.0, u)
        print("  %-6d %-12.6f %-12.6f %.4f" % (scale, s, pred, ratio))
    print("the ratio drifts toward 1: the scaled walk survival converges")
    print("to the Brownian non-collision probability")


if __name__ == "__main__":
    main()
