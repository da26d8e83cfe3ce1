"""Pfaffians and a Hermitian eigensolver.

Spectra are delegated to LAPACK through numpy; the Pfaffian uses
skew-symmetric (Parlett-Reid style) elimination with pivoting, since no
standard library routine exists for it.
"""

import numpy as np

__all__ = ["skew_from_upper", "pfaffian", "symmetric_eigenvalues"]


def skew_from_upper(upper):
    """Skew-symmetric matrix A with A[i, j] = upper[i, j] for i < j.

    The diagonal and lower triangle of the input are ignored, so the result
    is exactly skew by construction.
    """
    upper = np.asarray(upper, dtype=float)
    a = np.triu(upper, k=1)
    return a - a.T


def pfaffian(a, atol=1e-12):
    """Pfaffian of even-dimensional skew-symmetric matrices, batched over leading axes.

    Skew elimination with pivoting on the largest magnitude in the working
    column; satisfies pfaffian(a)^2 = det(a).  A (..., n, n) input gives an
    array of shape (...); a 2-D input gives a float.  A matrix whose working
    column vanishes has Pfaffian 0.
    """
    a = np.array(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    n = a.shape[-1]
    if n % 2 != 0:
        raise ValueError("Pfaffian requires even dimension")
    scale = np.abs(a).max() if a.size else 0.0
    if not np.allclose(a, -np.swapaxes(a, -1, -2), atol=atol * max(scale, 1.0)):
        raise ValueError("matrix is not skew-symmetric")
    batch = a.shape[:-2]
    a = a.reshape((int(np.prod(batch)), n, n))
    rows = np.arange(a.shape[0])
    pf = np.ones(a.shape[0])
    zero = np.zeros(a.shape[0], dtype=bool)
    for k in range(0, n - 2, 2):
        # pivot: bring the largest |a[k, j]|, j > k, into position k+1
        col = np.abs(a[:, k, k + 1:])
        j = k + 1 + np.argmax(col, axis=1)
        zero |= col.max(axis=1) == 0.0
        swap = j != k + 1
        if swap.any():
            perm = np.broadcast_to(np.arange(n), a.shape[:2]).copy()
            perm[:, k + 1] = j
            perm[rows, j] = k + 1
            a = np.take_along_axis(a, perm[:, :, None], axis=1)
            a = np.take_along_axis(a, perm[:, None, :], axis=2)
            pf[swap] = -pf[swap]
        pivot = np.where(zero, 1.0, a[:, k, k + 1])
        pf *= pivot
        # eliminate the rest of row/column k and k+1
        u = a[:, k, k + 2:] / pivot[:, None]
        v = a[:, k + 1, k + 2:] / pivot[:, None]
        a[:, k + 2:, k + 2:] += (v[:, :, None] * a[:, k, None, k + 2:]
                                 - u[:, :, None] * a[:, k + 1, None, k + 2:])
    out = np.where(zero, 0.0, pf * a[:, n - 2, n - 1]) if n else pf
    return float(out[0]) if not batch else out.reshape(batch)


def symmetric_eigenvalues(m, atol=1e-12):
    """Ascending eigenvalues of a real symmetric or complex Hermitian matrix."""
    m = np.asarray(m)
    scale = np.abs(m).max() if m.size else 0.0
    if not np.allclose(m, np.conj(np.swapaxes(m, -1, -2)), atol=atol * max(scale, 1.0)):
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh(m)
