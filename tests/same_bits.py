"""Bit-for-bit comparison of arrays, for the tests that claim bit identity.

``np.array_equal`` calls -0.0 and 0.0 equal (and NaN unequal to itself),
so it cannot see a change in the sign of a zero; these compare dtype,
shape and bytes.
"""

import numpy as np


def same_bits(got, want) -> bool:
    """Whether two arrays (or scalars) have the same dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def assert_same_bits(got, want, what: str = "") -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert same_bits(got, want), (
        f"{what or 'arrays'} differ in bits: {got.dtype}{got.shape} vs {want.dtype}{want.shape}")
