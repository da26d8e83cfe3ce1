"""Brownian non-collision probabilities via Pfaffians.

The probability that N ordered Brownian motions never meet up to time t is
a Pfaffian of pairwise error-function entries.  This script evaluates it,
checks the N = 2 closed form, cross-checks with bridge-weighted Monte Carlo,
and shows the small-configuration asymptotics that drive the conditioned
diffusion limits.
"""

import math

import numpy as np

from viciouskit import noncollision_mc, survival, survival_asymptotics
from viciouskit.special_functions import psi


def main():
    x = np.array([0.0, 1.0])
    print("two walkers, start gap 1, t = 1")
    print("  Pfaffian     :", survival(1.0, x))
    print("  erf closed   :", psi(0.5))

    x3 = np.array([0.0, 1.0, 2.0])
    exact = survival(1.0, x3)
    est, se = noncollision_mc(1.0, x3, samples=40_000, step=0.1, seed=0)
    print("\nthree walkers, equal gaps 1, t = 1")
    print("  Pfaffian     : %.5f" % exact)
    print("  Monte Carlo  : %.5f +- %.5f (40k paths, dt=0.1, bridge-weighted)" % (est, se))

    xw = np.array([0.5, 1.5])
    print("\ntwo walkers behind a wall at 0, t = 1")
    print("  Pfaffian     : %.5f" % survival(1.0, xw, wall=True))
    est, se = noncollision_mc(1.0, xw, samples=40_000, step=0.1, wall=True, seed=1)
    print("  Monte Carlo  : %.5f +- %.5f" % (est, se))

    print("\nshrinking start: survival ~ chamber polynomial / normalization")
    print("  %-8s %-12s %-12s %s" % ("eps", "exact", "predicted", "ratio"))
    for eps in (0.4, 0.2, 0.1, 0.05):
        s, pred, ratio = survival_asymptotics(1.0, eps * np.array([-0.5, 0.5]))
        print("  %-8.2f %-12.6f %-12.6f %.4f" % (eps, s, pred, ratio))


if __name__ == "__main__":
    main()
