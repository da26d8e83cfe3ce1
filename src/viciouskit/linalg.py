"""Pfaffians and a Hermitian eigensolver.

Spectra are delegated to LAPACK through numpy.  No standard library routine
exists for the Pfaffian, so one batched Parlett-Reid elimination with
pivoting, the congruence M A M^T = B to 2x2 blocks, gives it; the same
elimination gives A^-1 = M^T B^-1 M for the survival drift in `densities`.
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


def _skew_eliminate(a):
    """Parlett-Reid congruence M A M^T = B of a stack of skew matrices.

    a holds even-dimensional skew matrices on its last two axes and is taken
    as skew by construction; it is not checked.  Inside, the stack is laid
    out batch-last, (n, n, b), so every step is one elementwise operation
    across the batch.  Before each 2x2 step the largest |a[k, j]|, j > k,
    is swapped into position k + 1.  Returns (sign, pivots, m), batch-last
    with the batch flattened:

    * m, shape (n, n, b): the row swaps and unit-lower eliminations
      applied to the identity;
    * pivots, shape (n/2, b): the upper entries of the 2x2 blocks of B;
    * sign, shape (b,): det m = +-1.

    Then Pf A = sign * prod(pivots) and A^-1 = M^T B^-1 M.  A zero pivot
    marks a singular matrix; its step divides by 1 instead, so nothing
    divides by zero.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    size = int(np.prod(a.shape[:-2]))
    a = np.moveaxis(a.reshape((size, n, n)), 0, -1).copy()
    m = np.repeat(np.eye(n)[:, :, None], size, axis=2)
    sign = np.ones(size)
    pivots = np.empty((n // 2, size))
    for k in range(0, n, 2):
        if k + 2 < n:
            j = k + 1 + np.argmax(np.abs(a[k, k + 1:]), axis=0)
            for c in range(k + 2, n):
                swap = j == c
                if swap.any():
                    perm = np.arange(n)
                    perm[[k + 1, c]] = c, k + 1
                    a = np.where(swap, a[perm][:, perm], a)
                    m = np.where(swap, m[perm], m)
                    sign = np.where(swap, -sign, sign)
        p = a[k, k + 1]
        pivots[k // 2] = p
        if k + 2 < n:
            div = np.where(p == 0.0, 1.0, p)
            u = a[k, k + 2:] / div
            v = a[k + 1, k + 2:] / div
            # rows i > k+1 gain v_i row_k - u_i row_{k+1}, zeroing a[k, i] and a[k+1, i]
            a[k + 2:, k + 2:] += v[:, None] * a[k, k + 2:] - u[:, None] * a[k + 1, k + 2:]
            m[k + 2:] += v[:, None] * m[k] - u[:, None] * m[k + 1]
    return sign, pivots, m


def pfaffian(a, atol=1e-12):
    """Pfaffian of even-dimensional skew-symmetric matrices, batched over leading axes.

    Validates the input, then takes sign * prod(pivots) from one
    Parlett-Reid elimination (_skew_eliminate, largest-entry pivoting);
    satisfies pfaffian(a)^2 = det(a).  A (..., n, n) input gives an array of
    shape (...); a 2-D input gives a float.  A singular matrix has
    Pfaffian exactly 0.0, never -0.0.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    if a.shape[-1] % 2 != 0:
        raise ValueError("Pfaffian requires even dimension")
    scale = np.abs(a).max() if a.size else 0.0
    if not np.allclose(a, -np.swapaxes(a, -1, -2), atol=atol * max(scale, 1.0)):
        raise ValueError("matrix is not skew-symmetric")
    batch = a.shape[:-2]
    sign, pivots, _ = _skew_eliminate(a)
    pf = sign * np.prod(pivots, axis=0)
    pf = np.where(pf == 0.0, 0.0, pf)
    return float(pf[0]) if not batch else pf.reshape(batch)


def symmetric_eigenvalues(m, atol=1e-12):
    """Ascending eigenvalues of a real symmetric or complex Hermitian matrix."""
    m = np.asarray(m)
    scale = np.abs(m).max() if m.size else 0.0
    if not np.allclose(m, np.conj(np.swapaxes(m, -1, -2)), atol=atol * max(scale, 1.0)):
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh(m)
