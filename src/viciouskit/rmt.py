"""Gaussian random-matrix ensembles and their eigenvalue densities.

GOE / GUE / interpolating (Pandey-Mehta style) sampling, the closed-form
ordered-eigenvalue densities, and the bridge check identifying the
rescaled finite-horizon endpoint law with the interpolating ensemble
through the exact coordinate laws of `densities.coordinate_cdf`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .densities import ModelSpec, coordinate_cdf
from .harness import ks_test
from .montecarlo import _philox, _two_matrix_spectra
from .special_functions import constants, h_poly

__all__ = [
    "SpectrumSample",
    "sample_ensemble",
    "eigen_density",
    "pm_bridge_check",
]


@dataclass
class SpectrumSample:
    ensemble: str               # "GOE" | "GUE" | "PM"
    variance: float
    alpha: float | None
    eigenvalues: np.ndarray     # (samples, N), rows ascending
    seed: int


def sample_ensemble(kind, n, variance=1.0, alpha=None, samples=1000, seed=0):
    """Sorted eigenvalue samples from GOE, GUE, or the interpolating ensemble.

    Under the trace weight exp{-Tr H^2 / (2 sigma^2)} the real symmetric
    matrix has diagonal entry variance sigma^2 and off-diagonal sigma^2/2;
    the Hermitian one has real and imaginary off-diagonal parts of variance
    sigma^2/2 each.  kind="PM" draws the matrix convolution
    GUE(2 alpha^2 v^2) + GOE(2 (1-alpha^2) v^2), v^2 = 1/(2 (1+alpha^2)).
    Every kind is one (GUE, GOE) variance pair, one step of the two-matrix
    process that also gives montecarlo.sample_origin_law its draws.
    """
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    if variance <= 0:
        raise ValueError("variance must be positive")
    if kind == "GOE":
        gue_var, goe_var = 0.0, variance
    elif kind == "GUE":
        gue_var, goe_var = variance, 0.0
    elif kind == "PM":
        if alpha is None or not (0.0 <= alpha <= 1.0):
            raise ValueError("PM requires alpha in [0, 1]")
        v2 = 1.0 / (2.0 * (1.0 + alpha ** 2))
        gue_var = 2.0 * alpha ** 2 * v2 * variance
        goe_var = 2.0 * (1.0 - alpha ** 2) * v2 * variance
    else:
        raise ValueError("unknown ensemble %r" % (kind,))
    eig = _two_matrix_spectra(_philox(seed, 0), n, [(1.0, gue_var, goe_var)], samples)[..., 0]
    return SpectrumSample(ensemble=kind, variance=variance, alpha=alpha, eigenvalues=eig, seed=seed)


def eigen_density(kind, x, variance=1.0):
    """Closed-form joint eigenvalue density (symmetric, 1/N! included).

    GUE: (c'_N / N!) sigma^{-N^2} exp(-|x|^2 / 2 sigma^2) h(x)^2
    GOE: (c_N / N!)  sigma^{-N(N+1)/2} exp(-|x|^2 / 2 sigma^2) |h(x)|
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if variance <= 0:
        raise ValueError("variance must be positive")
    consts = constants(n)
    sigma = math.sqrt(variance)
    gauss = np.exp(-np.sum(x ** 2, axis=-1) / (2 * variance))
    if kind == "GUE":
        val = consts.c_prime / math.factorial(n) * sigma ** (-n * n) * gauss * h_poly(x) ** 2
    elif kind == "GOE":
        val = consts.c / math.factorial(n) * sigma ** (-n * (n + 1) / 2.0) * gauss * np.abs(h_poly(x))
    elif kind == "PM":
        raise ValueError("no closed form is provided for the interpolating ensemble")
    else:
        raise ValueError("unknown ensemble %r" % (kind,))
    return float(val) if np.ndim(val) == 0 else val


def pm_bridge_check(n, horizon, t, samples=10_000, seed=0, level=0.01):
    """One-sample comparison of the PM ensemble with the finite-horizon law.

    PM spectra at alpha = sqrt((T-t)/T), scaled by sqrt(t(2T-t)/T) --
    the two-matrix model GUE(t(T-t)/T) + GOE(t^2/T) -- against the exact
    coordinate laws of the origin-start g law at time t
    (densities.coordinate_cdf), at any n.  No parameter is fitted.  Returns
    one KS report per coordinate and one for the top eigenvalue.
    """
    if not (0 < t < horizon):
        raise ValueError("need 0 < t < horizon")
    alpha = math.sqrt((horizon - t) / horizon)
    pm = sample_ensemble("PM", n, alpha=alpha, samples=samples, seed=seed).eigenvalues
    y = pm * math.sqrt(t * (2 * horizon - t) / horizon)
    spec = ModelSpec(n, horizon=horizon)
    reports = [ks_test(y[:, k], lambda v, k=k: coordinate_cdf(spec, t, v)[..., k], level=level,
                       metadata={"alpha": alpha}, name="pm_bridge_coord%d_t%g" % (k, t))
               for k in range(n)]
    reports.append(ks_test(y[:, -1], lambda v: coordinate_cdf(spec, t, v)[..., -1], level=level,
                           metadata={"alpha": alpha}, name="pm_bridge_top_t%g" % t))
    return reports
