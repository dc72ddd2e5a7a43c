import itertools

import numpy as np
import pytest

from rank3mod.fields import (
    GF4_CONJ,
    GF4_MUL,
    GF4_ONE,
    GF4_T,
    GF4_T2,
    GF4_ZERO,
    is_odd_prime,
    product_dtype,
    storage_dtype,
)
from rank3mod.linalg import _reduce, inv_table

ELEMS = [GF4_ZERO, GF4_ONE, GF4_T, GF4_T2]


# addition in F4 is XOR on the codes; multiplication and conjugation are the tables


def test_gf4_examples():
    assert GF4_CONJ[GF4_T] == GF4_T2
    assert GF4_MUL[GF4_T, GF4_T2] == GF4_ONE
    assert GF4_T ^ GF4_T2 == GF4_ONE  # t^2 = t + 1 in characteristic 2
    assert GF4_MUL[GF4_T, GF4_T] == GF4_T2


def test_gf4_field_axioms_exhaustive():
    mul = GF4_MUL
    for x, y, z in itertools.product(ELEMS, repeat=3):
        assert mul[x, y] == mul[y, x]
        assert mul[mul[x, y], z] == mul[x, mul[y, z]]
        assert mul[x, y ^ z] == mul[x, y] ^ mul[x, z]
    for x in ELEMS:
        assert mul[x, GF4_ONE] == x
        # every nonzero element has exactly one inverse, zero has none
        assert sum(mul[x, y] == GF4_ONE for y in ELEMS) == (1 if x else 0)


def test_gf4_conj_is_involutive_automorphism_fixing_f2():
    conj, mul = GF4_CONJ, GF4_MUL
    for x, y in itertools.product(ELEMS, repeat=2):
        assert conj[conj[x]] == x
        assert conj[x ^ y] == conj[x] ^ conj[y]
        assert conj[mul[x, y]] == mul[conj[x], conj[y]]
        assert conj[x] == mul[x, x]
    assert [x for x in ELEMS if conj[x] == x] == [GF4_ZERO, GF4_ONE]


def test_gf4_vectorised():
    xs = np.array(ELEMS, dtype=np.uint8)
    assert (GF4_MUL[xs, xs] == np.array([0, 1, 3, 2])).all()
    assert (GF4_CONJ[xs] == np.array([0, 1, 3, 2])).all()


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13, 17])
def test_prime_field_axioms_exhaustive(ell):
    # residues mod ell with linalg's inverse table, which is made once per ell
    inv = inv_table(ell)
    assert inv_table(ell) is inv
    xs = np.arange(ell, dtype=np.int64)
    assert ((xs[1:] * inv[1:]) % ell == 1).all()
    x, y, z = np.meshgrid(xs, xs, xs, indexing="ij")
    assert ((x * (y + z)) % ell == (x * y + x * z) % ell).all()


def test_non_prime_ell_is_refused():
    # the guard at the entry of every analysis (and of the CLI)
    from rank3mod.analyze import run_analysis
    from rank3mod.expected import expected

    for ell in (1, 2, 9, 15):
        with pytest.raises(ValueError):
            expected("o+", 3, ell)
        with pytest.raises(ValueError):
            run_analysis("o+", 3, ell)


def test_reduce_int_examples():
    # linalg._reduce takes X mod ell in place: np.remainder on small arrays,
    # X - ell * (X // ell) on large ones; both give residues of negatives too
    small = np.array([-4, 5, 6], dtype=np.int64)
    assert _reduce(small, 3) is small
    assert (small == np.array([2, 2, 0])).all()
    big = np.arange(-3000, 3000, dtype=np.int64)
    assert (_reduce(big.copy(), 7) == big % 7).all()


def test_is_odd_prime():
    assert [p for p in range(20) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19]


def test_storage_dtype_holds_every_residue():
    assert storage_dtype(3) == storage_dtype(127) == np.int8
    assert storage_dtype(131) == storage_dtype(32749) == np.int16
    for ell in (3, 127, 131, 32749):
        assert np.iinfo(storage_dtype(ell)).max >= ell - 1
    with pytest.raises(ValueError):
        storage_dtype(65537)


def test_product_dtype_exactness_bounds():
    # float32 while inner * (ell - 1)^2 < 2^24, float64 while < 2^53
    assert product_dtype(3, 2**22 - 1) == np.float32
    assert product_dtype(3, 2**22) == np.float64
    assert product_dtype(17, 672) == np.float32
    assert product_dtype(32749, 672) == np.float64
    assert product_dtype(32749, 2**22) == np.float64
    with pytest.raises(ValueError):
        product_dtype(32749, 2**23 + 2**22)
    with pytest.raises(ValueError):
        product_dtype(2**31 - 1, 1)
