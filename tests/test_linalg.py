import numpy as np
import pytest

from corrcolor.linalg import symmetric_eigenvalues


class TestJacobiEigensolver:
    """The eigenvalue path the diagnostics use (``symmetric_eigenvalues``)."""

    def test_diagonal_matrix(self):
        vals = symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(vals, [3.0, 2.0, 1.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 25, 64])
    def test_matches_numpy_on_random_symmetric(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        vals = symmetric_eigenvalues(a)
        assert np.all(np.diff(vals) <= 0.0), "eigenvalues not in descending order"
        # the spectrum of a known rotation of the diagonal
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        known = np.sort(rng.standard_normal(n))[::-1]
        rotated = q @ np.diag(known) @ q.T
        np.testing.assert_allclose(symmetric_eigenvalues(0.5 * (rotated + rotated.T)), known,
                                   atol=1e-12)
        # invariants: trace and Frobenius norm
        np.testing.assert_allclose(vals.sum(), np.trace(a), atol=1e-9)
        np.testing.assert_allclose(np.sum(vals ** 2), np.sum(a * a), rtol=1e-12)

    def test_positive_semidefinite_gram(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((10, 6))
        gram = z.T @ z
        vals = symmetric_eigenvalues(gram)
        assert np.all(vals > -1e-9)
        np.testing.assert_allclose(vals.sum(), np.trace(gram), atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_eigenvalues(np.ones((2, 3)))

    def test_one_by_one(self):
        np.testing.assert_array_equal(symmetric_eigenvalues(np.array([[4.0]])), [4.0])
