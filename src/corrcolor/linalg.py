"""Eigenvalues of the small symmetric matrices the diagnostics read.

The covariance matrices here are at most a few hundred wide, so
LAPACK's symmetric eigenvalue routine (through ``numpy.linalg.eigvalsh``)
answers in well under a millisecond.
"""

from __future__ import annotations

import numpy as np


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a real symmetric matrix."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)[::-1]
