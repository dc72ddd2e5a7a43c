import itertools

import numpy as np
import pytest

from rank3mod.fields import (
    GF4_ONE,
    GF4_T,
    GF4_T2,
    GF4_ZERO,
    PrimeField,
    gf4_add,
    gf4_conj,
    gf4_inv,
    gf4_mul,
    is_odd_prime,
    make_prime_field,
    product_dtype,
    storage_dtype,
)

ELEMS = [GF4_ZERO, GF4_ONE, GF4_T, GF4_T2]


def test_gf4_examples():
    assert gf4_conj(GF4_T) == GF4_T2
    assert gf4_mul(GF4_T, GF4_T2) == GF4_ONE
    assert gf4_add(GF4_T, GF4_T2) == GF4_ONE  # t^2 = t + 1 in characteristic 2
    assert gf4_mul(GF4_T, GF4_T) == GF4_T2


def test_gf4_field_axioms_exhaustive():
    for x, y, z in itertools.product(ELEMS, repeat=3):
        assert gf4_add(x, y) == gf4_add(y, x)
        assert gf4_mul(x, y) == gf4_mul(y, x)
        assert gf4_add(gf4_add(x, y), z) == gf4_add(x, gf4_add(y, z))
        assert gf4_mul(gf4_mul(x, y), z) == gf4_mul(x, gf4_mul(y, z))
        assert gf4_mul(x, gf4_add(y, z)) == gf4_add(gf4_mul(x, y), gf4_mul(x, z))
    for x in ELEMS:
        assert gf4_add(x, x) == 0
        assert gf4_mul(x, GF4_ONE) == x
        if x:
            assert gf4_mul(x, gf4_inv(x)) == GF4_ONE


def test_gf4_conj_is_involutive_automorphism_fixing_f2():
    for x, y in itertools.product(ELEMS, repeat=2):
        assert gf4_conj(gf4_conj(x)) == x
        assert gf4_conj(gf4_add(x, y)) == gf4_add(gf4_conj(x), gf4_conj(y))
        assert gf4_conj(gf4_mul(x, y)) == gf4_mul(gf4_conj(x), gf4_conj(y))
        assert gf4_conj(x) == gf4_mul(x, x)
    assert [x for x in ELEMS if gf4_conj(x) == x] == [GF4_ZERO, GF4_ONE]


def test_gf4_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf4_inv(GF4_ZERO)


def test_gf4_vectorised():
    xs = np.array(ELEMS, dtype=np.uint8)
    assert (gf4_mul(xs, xs) == np.array([0, 1, 3, 2])).all()
    assert (gf4_conj(xs) == np.array([0, 1, 3, 2])).all()


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13, 17])
def test_prime_field_axioms_exhaustive(ell):
    F = make_prime_field(ell)
    for x in range(ell):
        for y in range(ell):
            assert (x + y) % ell == F.reduce(x + y)
            for z in range(ell):
                assert (x * (y + z)) % ell == (x * y + x * z) % ell
        if x:
            assert (x * F.inv(x)) % ell == 1
    assert F.reduce(-1) == ell - 1


def test_make_prime_field_rejects_two_and_composites():
    assert make_prime_field(3).ell == 3
    with pytest.raises(ValueError):
        make_prime_field(2)
    with pytest.raises(ValueError):
        make_prime_field(9)
    with pytest.raises(ValueError):
        make_prime_field(1)


def test_reduce_int_examples():
    F3 = PrimeField(3)
    assert F3.reduce(-4) == 2
    for n in range(2, 20):
        assert F3.reduce(2 ** (n - 2)) == F3.reduce(-(2 ** (n - 1)))
    F7 = PrimeField(7)
    assert F7.reduce(2**3 - 1) == 0
    arr = F3.reduce(np.array([-4, 5, 6]))
    assert (arr == np.array([2, 2, 0])).all()


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
