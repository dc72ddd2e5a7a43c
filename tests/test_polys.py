import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rank3mod.polys import (
    deg,
    factor_poly,
    poly_divmod,
    poly_eval_int,
    poly_gcd,
    poly_mul,
    trim,
)


def poly(coeffs):
    return trim(np.array(coeffs, dtype=np.int64))


def test_divmod_roundtrip():
    a = poly([1, 2, 3, 4, 1])
    b = poly([2, 0, 1])
    q, r = poly_divmod(a, b, 5)
    back = (np.convolve(q, b) % 5).copy()
    back[: len(r)] = (back[: len(r)] + r) % 5
    assert (trim(back) == a).all()
    assert deg(r) < deg(b)


def test_gcd_of_known_product():
    a = poly_mul(poly([1, 1]), poly([2, 0, 1]), 7)
    b = poly_mul(poly([1, 1]), poly([3, 1]), 7)
    g = poly_gcd(a, b, 7)
    assert (g == poly([1, 1])).all()


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_factor_linear_split(ell):
    # x^ell - x = product of all monic linear polynomials
    f = np.zeros(ell + 1, dtype=np.int64)
    f[1] = ell - 1
    f[ell] = 1
    factors = factor_poly(f, ell, seed=1)
    assert len(factors) == ell
    assert all(deg(g) == 1 and mult == 1 for g, mult in factors)


def test_factor_with_multiplicity():
    # (x-1)^2 (x^2+1) over F_3; x^2+1 is irreducible mod 3
    f = poly_mul(poly_mul(poly([2, 1]), poly([2, 1]), 3), poly([1, 0, 1]), 3)
    factors = factor_poly(f, 3, seed=0)
    assert sorted((deg(g), mult) for g, mult in factors) == [(1, 2), (2, 1)]


def test_factor_frobenius_power():
    # x^3 - 1 = (x - 1)^3 over F_3
    factors = factor_poly(poly([-1, 0, 0, 1]), 3, seed=0)
    assert len(factors) == 1
    (g, mult) = factors[0]
    assert mult == 3 and (g == poly([2, 1])).all()


def test_factor_power_of_ell_multiplicity():
    # x^3 (x + 1) over F_3: x has multiplicity exactly 3, x + 1 exactly 1
    factors = factor_poly(poly([0, 0, 0, 1, 1]), 3, seed=0)
    assert sorted((tuple(g), mult) for g, mult in factors) == [((0, 1), 3), ((1, 1), 1)]
    # x^9 (x + 2)^3 (x + 1)^2 over F_3 needs two ell-th-root steps for x
    f = poly([1])
    for lin, mult in (([0, 1], 9), ([2, 1], 3), ([1, 1], 2)):
        for _ in range(mult):
            f = poly_mul(f, poly(lin), 3)
    factors = factor_poly(f, 3, seed=0)
    assert sorted((tuple(g), mult) for g, mult in factors) == [
        ((0, 1), 9), ((1, 1), 2), ((2, 1), 3)
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 13]),
    st.lists(st.integers(0, 16), min_size=2, max_size=14),
    st.integers(0, 3),
)
@example(ell=3, coeffs=[0, 0, 0, 1, 1], seed=0)
def test_factorisation_reassembles(ell, coeffs, seed):
    f = trim(np.array(coeffs, dtype=np.int64) % ell)
    if deg(f) < 1:
        return
    factors = factor_poly(f, ell, seed=seed)
    prod = np.array([1], dtype=np.int64)
    for g, mult in factors:
        assert g[-1] == 1  # monic
        for _ in range(mult):
            prod = poly_mul(prod, g, ell)
    lead = int(f[-1])
    assert (poly_mul(prod, np.array([lead]), ell) == f).all()
    # irreducibility of the reported factors: no roots for deg 2/3 pieces
    for g, _ in factors:
        if deg(g) in (2, 3):
            assert all(poly_eval_int(g, x, ell) != 0 for x in range(ell))
