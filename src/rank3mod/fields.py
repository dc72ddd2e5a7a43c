"""Arithmetic for the three kinds of fields in play: F2, F4, and odd prime fields.

F4 = {0, 1, t, t^2}, t^2 = t + 1, is encoded in two bits: code 0 is 0, code 1
is 1, code 2 is t, code 3 is t^2 = t + 1 (bit 0 the constant part, bit 1 the
t part).  Addition is XOR; multiplication, inversion and conjugation
(x -> x^2, the involution fixing exactly F2) are table driven so they also
vectorise over numpy arrays of codes.

Odd prime fields are residue arithmetic mod ell with a precomputed inverse
table.  ell = 2 is rejected everywhere: the structure theory implemented
downstream needs odd characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# multiplicative inverses (index 0 unused).
GF4_INV = np.array([0, 1, 3, 2], dtype=np.uint8)


def gf4_add(x, y):
    """Sum in F4 (characteristic 2, so XOR on codes)."""
    return x ^ y


def gf4_mul(x, y):
    """Product in F4; works elementwise on arrays of codes."""
    return GF4_MUL[x, y]


def gf4_conj(x):
    """Conjugation x -> x^2."""
    return GF4_CONJ[x]


def gf4_inv(x):
    """Multiplicative inverse; raises on 0."""
    if np.any(np.asarray(x) == 0):
        raise ZeroDivisionError("inverse of 0 in F4")
    return GF4_INV[x]


def is_odd_prime(ell: int) -> bool:
    if ell < 3 or ell % 2 == 0:
        return False
    d = 3
    while d * d <= ell:
        if ell % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_ell for an odd prime ell, as residues 0..ell-1."""

    ell: int
    inv_table: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not is_odd_prime(self.ell):
            raise ValueError(f"modulus must be an odd prime, got {self.ell}")
        inv = np.zeros(self.ell, dtype=np.int64)
        for x in range(1, self.ell):
            inv[x] = pow(x, self.ell - 2, self.ell)
        object.__setattr__(self, "inv_table", inv)

    def reduce(self, z):
        """Reduce a signed integer (or integer array) into 0..ell-1."""
        return z % self.ell

    def neg(self, x):
        return (-x) % self.ell

    def inv(self, x: int) -> int:
        x = x % self.ell
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in F_ell")
        return int(self.inv_table[x])


def storage_dtype(ell: int) -> type:
    """Integer dtype of stored F_ell matrices: int8 for ell <= 127, int16 up to 2^15.

    Larger ell is refused: its residues would wrap in int16.
    """
    if ell <= 127:
        return np.int8
    if ell <= 2**15:
        return np.int16
    raise ValueError(f"ell = {ell} is too large for stored F_ell matrices (at most 2^15)")


def make_prime_field(ell: int) -> PrimeField:
    """Context for F_ell; rejects ell = 2 and composites."""
    return PrimeField(ell)
