import hashlib
import itertools

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
    poly_mod,
    poly_mul,
    poly_pow_mod,
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


# ---------------------------------------------------------------------------
# factorisation checked against independent definitions

PROPERTY_ELLS = [3, 5, 7, 11, 17, 127]
BRUTE_FORCE_CANDIDATES = 3000  # monic divisors tried one by one at most


def _is_irreducible(g, ell) -> bool:
    """Independent irreducibility test of monic g: no root in F_ell, and no
    monic divisor of degree 2 .. deg g // 2.  The divisors are tried one by
    one while they are few; past that, g has none of degree at most d // 2
    exactly when gcd(x^(ell^i) - x, g) = 1 for i <= d // 2 (x^(ell^i) - x
    is the product of the monic irreducibles of degree dividing i)."""
    d = deg(g)
    if any(poly_eval_int(g, x, ell) == 0 for x in range(ell)):
        return d == 1
    if sum(ell**k for k in range(2, d // 2 + 1)) <= BRUTE_FORCE_CANDIDATES:
        for k in range(2, d // 2 + 1):
            for low in itertools.product(range(ell), repeat=k):
                if not poly_mod(g, np.array([*low, 1], dtype=np.int64), ell).any():
                    return False
        return True
    x = np.array([0, 1], dtype=np.int64)
    h = x
    for _ in range(d // 2):
        h = poly_pow_mod(h, ell, g, ell)
        if deg(poly_gcd(trim((np.pad(h, (0, 2)) - np.pad(x, (0, len(h)))) % ell), g, ell)) > 0:
            return False
    return True


def _expand(factors, ell):
    out = np.array([1], dtype=np.int64)
    for g, mult in factors:
        for _ in range(mult):
            out = poly_mul(out, g, ell)
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PROPERTY_ELLS),
    st.lists(
        st.tuples(st.lists(st.integers(0, 200), min_size=1, max_size=5), st.integers(1, 3)),
        min_size=1, max_size=4,
    ),
    st.lists(st.integers(0, 200), min_size=0, max_size=2),
    st.integers(0, 3),
)
@example(ell=3, parts=[([1, 1], 2), ([1, 0, 1], 1)], root=[2], seed=0)
@example(ell=127, parts=[([5, 3], 3)], root=[7], seed=1)
def test_factorisation_is_into_sorted_monic_irreducibles(ell, parts, root, seed):
    # f = lead * prod p^k * (x^len(root) + root)^ell: repeated factors and an
    # ell-th power, whose derivative is zero
    f = np.array([1], dtype=np.int64)
    for low, k in parts:
        for _ in range(k):
            f = poly_mul(f, np.array([*low, 1], dtype=np.int64) % ell, ell)
    if root:
        r = np.array([*root, 1], dtype=np.int64) % ell
        for _ in range(ell):
            f = poly_mul(f, r, ell)
    lead = 1 + seed % (ell - 1)
    f = poly_mul(f, np.array([lead], dtype=np.int64), ell)
    if deg(f) < 1:
        return
    factors = factor_poly(f, ell, seed=seed)
    assert (poly_mul(_expand(factors, ell), np.array([lead]), ell) == f).all()
    keys = [(deg(g), tuple(int(c) for c in g)) for g, _ in factors]
    assert keys == sorted(set(keys))  # sorted, and each irreducible once
    for g, mult in factors:
        assert g[-1] == 1 and mult >= 1
        assert _is_irreducible(g, ell)


def test_irreducibility_check_refuses_products():
    assert _is_irreducible(poly([1, 0, 1]), 3)  # x^2 + 1 has no root mod 3
    assert not _is_irreducible(poly_mul(poly([1, 0, 1]), poly([1, 0, 1]), 3), 3)
    # (x^2 + x + 3)(x^3 + x + 4) mod 127: no root, a divisor of degree 2,
    # past the brute-force range
    g = poly_mul(poly([3, 1, 1]), poly([4, 1, 0, 1]), 127)
    assert all(poly_eval_int(g, x, 127) for x in range(127))
    assert not _is_irreducible(g, 127)
    assert _is_irreducible(poly([4, 1, 0, 1]), 127)


# A rootless annihilator of degree 175 met by the chop of
# `verify --family u --dim 5 --ell 5 --seed 1` when the meataxe ran on all
# kept generators, with its factorisation as the distinct-degree route gave it
PINNED_175 = (
    "224424213302412012142100430214422401404422202114441020000331434203402420"
    "040331420013224141420303313304322410432221401130302443013331203110432140"
    "13033224003044020120434102422011"
)
PINNED_175_FACTORS = "6738a80c4af8519eb032470113417952a332efea682739d4d5839f9c803a60fb"


def test_pinned_degree_175_factorisation():
    f = np.array([int(c) for c in PINNED_175], dtype=np.int64)
    assert deg(f) == 175
    factors = factor_poly(f, 5, seed=1)
    assert [(deg(g), mult) for g, mult in factors] == [(3, 1), (7, 1), (55, 1), (110, 1)]
    digits = " ".join("".join(str(int(c)) for c in g) for g, _ in factors)
    assert digits.startswith("2441 44024111 ")
    assert hashlib.sha256(digits.encode()).hexdigest() == PINNED_175_FACTORS
    # the seed drives only the splitting elements
    again = factor_poly(f, 5, seed=7)
    assert " ".join("".join(str(int(c)) for c in g) for g, _ in again) == digits
