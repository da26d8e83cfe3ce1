"""Endpoint laws of conditioned walkers are random-matrix spectra.

The horizon-conditioned endpoint from the origin is (N! times) the GOE
eigenvalue density, the forever-conditioned endpoint the GUE one, and at
intermediate times the law matches a one-parameter ensemble interpolating
between the two.  This script checks the identities pointwise, by sampled
spectra, and via the interpolation bridge.
"""

import math

import numpy as np

from viciouskit import ModelSpec, coordinate_cdf, g_density, p_density
from viciouskit.harness import ks_test
from viciouskit.rmt import eigen_density, pm_bridge_check, sample_ensemble


def main():
    n, T, t = 2, 1.0, 0.6
    y = np.array([-0.4, 0.9])
    g = g_density(ModelSpec(n, horizon=T), 0.0, None, T, y)
    p = p_density(ModelSpec(n), 0.0, None, t, y)
    print("pointwise identities at y =", y)
    print("  horizon endpoint / (N! GOE density): %.12f"
          % (g / (math.factorial(n) * eigen_density("GOE", y, T))))
    print("  h-transform endpoint / (N! GUE density): %.12f"
          % (p / (math.factorial(n) * eigen_density("GUE", y, t))))

    print("\nsampled spectra vs exact coordinate laws (per-coordinate KS, 1%)")
    for kind in ("GOE", "GUE"):
        spec = sample_ensemble(kind, n, variance=1.0, samples=5000, seed=3)
        # GOE(1) is the horizon endpoint at t = T = 1, GUE(1) the h-transform one at t = 1
        law = ModelSpec(n, horizon=1.0 if kind == "GOE" else math.inf)
        for c in range(n):
            rep = ks_test(spec.eigenvalues[:, c], lambda x, c=c: coordinate_cdf(law, 1.0, x)[..., c],
                          name="%s coord %d" % (kind, c))
            print("  %-12s D = %.4f (crit %.4f) -> %s"
                  % (rep.test_name, rep.statistic, rep.critical_value, rep.verdict))

    print("\ninterpolation bridge at t = T/2 (one-sample KS per coordinate against the exact g law)")
    for rep in pm_bridge_check(2, 1.0, 0.5, samples=5000, seed=4):
        print("  %-24s D = %.4f (crit %.4f) -> %s"
              % (rep.test_name, rep.statistic, rep.critical_value, rep.verdict))


if __name__ == "__main__":
    main()
