import numpy as np
import pytest

from viciouskit.linalg import pfaffian

# frozen upper triangle of a 6x6 skew matrix and the Pfaffian of its
# 15-term perfect-matching expansion, computed independently
FROZEN_UPPER = np.array([0.836, 1.182, 1.886, 3.145, -0.228, -1.135, 0.062,
                         -0.86, 1.407, 0.217, 1.713, -1.849, -0.946, 1.096,
                         -0.966])
FROZEN_PF = 6.275349980999999


def _skew(up):
    """The skew matrix with the strict upper triangle of up."""
    a = np.triu(up, 1)
    return a - a.T


def _skew6():
    up = np.zeros((6, 6))
    up[np.triu_indices(6, 1)] = FROZEN_UPPER
    return _skew(up)


def test_pfaffian_matches_matching_expansion():
    assert pfaffian(_skew6()) == pytest.approx(FROZEN_PF, rel=1e-12)


def test_pfaffian_squared_is_determinant():
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    for n in (2, 4, 6, 8, 10):
        a = _skew(rng.normal(size=(n, n)))
        assert pfaffian(a) ** 2 == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_pfaffian_base_cases_and_errors():
    assert pfaffian(np.zeros((0, 0))) == 1.0
    a = _skew(np.array([[0.0, 2.5], [0.0, 0.0]]))
    assert pfaffian(a) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pfaffian(np.ones((2, 2)))     # not skew


def test_pfaffian_row_swap_flips_sign():
    a = _skew6()
    perm = [1, 0, 2, 3, 4, 5]
    b = a[np.ix_(perm, perm)]
    assert pfaffian(b) == pytest.approx(-FROZEN_PF, rel=1e-12)


def test_pfaffian_singular_matrix():
    a = np.zeros((4, 4))
    a[0, 1] = 1.0
    a[1, 0] = -1.0
    assert pfaffian(a) == 0.0


def test_pfaffian_batched_stack():
    a = _skew6()
    perm = [1, 0, 2, 3, 4, 5]
    singular = np.zeros((6, 6))
    singular[0, 1] = 1.0
    singular[1, 0] = -1.0
    out = pfaffian(np.stack([a, a[np.ix_(perm, perm)], singular]))
    assert out.shape == (3,)
    np.testing.assert_allclose(out, [FROZEN_PF, -FROZEN_PF, 0.0], rtol=1e-12)
    assert out[2] == 0.0


def test_pfaffian_batch_shapes_leave_input_untouched():
    # pfaffian copies its (..., n, n) input into the batch-last stack that the
    # elimination overwrites, for empty matrices and empty batches too
    np.testing.assert_array_equal(pfaffian(np.zeros((2, 3, 0, 0))), np.ones((2, 3)))
    assert pfaffian(np.zeros((0, 4, 4))).shape == (0,)
    # swapping indices 1 and 4 puts the largest |a[0, j]| at j = 1, so the first
    # elimination step has no row swap and works on the stack itself
    perm = [0, 4, 2, 3, 1, 5]
    a = _skew6()[np.ix_(perm, perm)]
    stack = np.stack([a, -a] * 3).reshape(3, 2, 6, 6)
    before = stack.copy()
    out = pfaffian(stack)
    assert out.shape == (3, 2)
    np.testing.assert_allclose(out, [[-FROZEN_PF, FROZEN_PF]] * 3, rtol=1e-12)
    # a strided view: the transpose of a 6x6 skew matrix has Pfaffian (-1)^3 Pf
    np.testing.assert_allclose(pfaffian(np.swapaxes(stack, -1, -2)[::2]), -out[::2],
                               rtol=1e-12)
    np.testing.assert_array_equal(stack, before)
