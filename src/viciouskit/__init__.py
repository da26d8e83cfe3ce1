"""Nonintersecting random walkers and their diffusion scaling limits.

Exact lattice counting (binomial determinants, and a Stembridge Pfaffian
for the lattice survival), Pfaffian non-collision probabilities,
closed-form transition densities of the conditioned diffusions (finite and
infinite horizon, with and without an absorbing wall), stochastic
simulation, random-matrix endpoint laws, and a verification harness.
"""

from .combinatorics import (LatticeConfig, WalkCount, count_paths, oracle_count_dp,
                            scaled_survival, survival_probability, time_lattice,
                            walk_probability)
from .densities import (ModelSpec, coordinate_cdf, de_bruijn_check, drift, drift_batch,
                        g_density, imhof_check, km_density, p_density, survival,
                        survival_asymptotics, survival_batch)
from .harness import StatReport, ks_test, ks_two_sample, verify_suite
from .linalg import pfaffian
from .montecarlo import (PathEnsemble, SimConfig, endpoint_values, noncollision_mc,
                         sample_origin_law, simulate_sde, simulate_walkers)
from .quadrature import chamber_integral, ordered_grid
from .rmt import SpectrumSample, eigen_density, pm_bridge_check, sample_ensemble
from .special_functions import (ModelConstants, constants, h_hat_poly, h_poly,
                                mehta_integral, psi, psi_hat)

__version__ = "0.1.0"
