"""Gaussian random-matrix ensembles and their eigenvalue densities.

GOE / GUE / interpolating (Pandey-Mehta style) sampling, the closed-form
ordered-eigenvalue densities, and the bridge check identifying the
rescaled finite-horizon endpoint law with the interpolating ensemble.
"""

import math
from dataclasses import dataclass

import numpy as np

from .densities import ModelSpec
from .linalg import symmetric_eigenvalues
from .montecarlo import _goe_matrices, _gue_matrices, sample_origin_law
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


def _rng(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, stream]))


def sample_ensemble(kind, n, variance=1.0, alpha=None, samples=1000, seed=0):
    """Sorted eigenvalue samples from GOE, GUE, or the interpolating ensemble.

    Under the trace weight exp{-Tr H^2 / (2 sigma^2)} the real symmetric
    matrix has diagonal entry variance sigma^2 and off-diagonal sigma^2/2;
    the Hermitian one has real and imaginary off-diagonal parts of variance
    sigma^2/2 each.  kind="PM" draws the matrix convolution
    GUE(2 alpha^2 v^2) + GOE(2 (1-alpha^2) v^2), v^2 = 1/(2 (1+alpha^2)).
    """
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    if variance <= 0:
        raise ValueError("variance must be positive")
    rng = _rng(seed)
    if kind == "GOE":
        mats = _goe_matrices(rng, n, variance, samples)
    elif kind == "GUE":
        mats = _gue_matrices(rng, n, variance, samples)
    elif kind == "PM":
        if alpha is None or not (0.0 <= alpha <= 1.0):
            raise ValueError("PM requires alpha in [0, 1]")
        v2 = 1.0 / (2.0 * (1.0 + alpha ** 2))
        gue_var = 2.0 * alpha ** 2 * v2 * variance
        goe_var = 2.0 * (1.0 - alpha ** 2) * v2 * variance
        mats = np.zeros((samples, n, n), dtype=complex)
        if gue_var > 0:
            mats = mats + _gue_matrices(rng, n, gue_var, samples)
        if goe_var > 0:
            mats = mats + _goe_matrices(rng, n, goe_var, samples)
    else:
        raise ValueError("unknown ensemble %r" % (kind,))
    eig = symmetric_eigenvalues(mats)
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
    """Two-sample comparison of the rescaled endpoint law with the PM ensemble.

    Side (a): eigenvalues of the interpolating ensemble at
    alpha = sqrt((T-t)/T).  Side (b): exact origin-start endpoint draws at
    time t (sample_origin_law, any N) rescaled by sqrt(T/(t(2T-t))).  A
    single global scale is fitted by matching second moments and reported
    alongside the per-coordinate and top-eigenvalue KS verdicts.
    """
    from .harness import ks_two_sample

    if not (0 < t < horizon):
        raise ValueError("need 0 < t < horizon")
    alpha = math.sqrt((horizon - t) / horizon)
    pm = sample_ensemble("PM", n, alpha=alpha, samples=samples, seed=seed).eigenvalues
    endpoint = sample_origin_law(ModelSpec(n, horizon=horizon), t, samples, _rng(seed + 1))
    rescaled = endpoint * math.sqrt(horizon / (t * (2 * horizon - t)))
    scale = math.sqrt(np.mean(rescaled ** 2) / np.mean(pm ** 2))
    pm_scaled = pm * scale
    reports = []
    for k in range(n):
        rep = ks_two_sample(pm_scaled[:, k], rescaled[:, k], level=level,
                            name="pm_bridge_coord%d_t%g" % (k, t))
        rep.metadata["fitted_scale"] = scale
        rep.metadata["alpha"] = alpha
        reports.append(rep)
    top = ks_two_sample(pm_scaled[:, -1], rescaled[:, -1], level=level,
                        name="pm_bridge_top_t%g" % t)
    top.metadata["fitted_scale"] = scale
    reports.append(top)
    return reports
