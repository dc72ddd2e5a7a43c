"""Arithmetic for the three kinds of fields in play: F2, F4, and odd prime fields.

F4 = {0, 1, t, t^2}, t^2 = t + 1, is encoded in two bits: code 0 is 0, code 1
is 1, code 2 is t, code 3 is t^2 = t + 1 (bit 0 the constant part, bit 1 the
t part).  Addition is XOR; multiplication and conjugation (x -> x^2, the
involution fixing exactly F2) are the tables GF4_MUL and GF4_CONJ, indexed
by codes, so they also vectorise over numpy arrays of codes.

Odd prime fields are residues 0..ell-1 in numpy integer arrays; this module
picks, for `linalg`, the integer dtype that stores them and the float dtype
whose products of them are exact, and `linalg.inv_table` holds their
inverses.  ell = 2 is rejected everywhere (`is_odd_prime`): the structure
theory implemented downstream needs odd characteristic.
"""

from __future__ import annotations

from functools import cache

import numpy as np

GF4_ZERO, GF4_ONE, GF4_T, GF4_T2 = 0, 1, 2, 3

# 4x4 multiplication table for the 2-bit encoding.
GF4_MUL = np.array(
    [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ],
    dtype=np.uint8,
)
# x^2, which is also conjugation.
GF4_CONJ = np.array([0, 1, 3, 2], dtype=np.uint8)


def is_odd_prime(ell: int) -> bool:
    if ell < 3 or ell % 2 == 0:
        return False
    d = 3
    while d * d <= ell:
        if ell % d == 0:
            return False
        d += 2
    return True


def storage_dtype(ell: int) -> type:
    """Integer dtype of stored F_ell matrices: int8 for ell <= 127, int16 up to 2^15.

    Larger ell is refused: its residues would wrap in int16.
    """
    if ell <= 127:
        return np.int8
    if ell <= 2**15:
        return np.int16
    raise ValueError(f"ell = {ell} is too large for stored F_ell matrices (at most 2^15)")


@cache
def product_dtype(ell: int, inner: int) -> type:
    """Float dtype whose BLAS products of F_ell matrices are exact.

    A product of matrices with entries of size at most ell - 1 over an inner
    dimension `inner` sums to at most inner * (ell - 1)^2; float32 holds every
    integer below 2^24 exactly and float64 every integer below 2^53.  Beyond
    that no float product is exact, and the request is refused.
    """
    bound = max(inner, 1) * (ell - 1) ** 2
    if bound < 2**24:
        return np.float32
    if bound < 2**53:
        return np.float64
    raise ValueError(
        f"F_{ell} products over an inner dimension of {inner} are not exact in float64"
    )

