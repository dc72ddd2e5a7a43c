"""Geometry tests.

The point-count oracles here re-enumerate every vector with a plain Python
form evaluator, independently of the vectorised production path.
"""

import itertools

import numpy as np
import pytest

from rank3mod.fields import GF4_CONJ, GF4_MUL, GF4_T, GF4_T2
from rank3mod.geometry import (
    OMINUS,
    OPLUS,
    UNITARY,
    Rank3Params,
    SpaceSpec,
    bilinear,
    brute_params,
    build_space,
    closed_params,
    enumerate_points,
    quadratic,
    quadratic_roots,
    root_pattern,
)

DESK = [
    (OPLUS, 6), (OPLUS, 8), (OPLUS, 10),
    (OMINUS, 6), (OMINUS, 8), (OMINUS, 10),
    (UNITARY, 4), (UNITARY, 5), (UNITARY, 6), (UNITARY, 7),
]


def naive_quadratic(space, v):
    """Reference Q: sum of qvals on support plus pairwise bilinear terms."""
    total = 0
    m = space.dim
    for i in range(m):
        total ^= int(v[i]) * int(space.qvals[i])
    for i in range(m):
        for j in range(i + 1, m):
            total ^= int(v[i]) * int(v[j]) * int(space.gram[i, j])
    return total


def naive_hermitian(space, u, v):
    acc = 0
    for i in range(space.dim):
        for j in range(space.dim):
            if space.gram[i, j]:
                acc ^= GF4_MUL[GF4_MUL[u[i], GF4_CONJ[v[j]]], space.gram[i, j]]
    return int(acc)


def test_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec(OPLUS, 4)
    with pytest.raises(ValueError):
        SpaceSpec(OPLUS, 7)
    with pytest.raises(ValueError):
        SpaceSpec(UNITARY, 3)
    with pytest.raises(ValueError):
        SpaceSpec("sp", 6)
    assert SpaceSpec(UNITARY, 4).q == 4
    assert SpaceSpec(OMINUS, 6).q == 2


def test_standard_bases():
    plus = build_space(SpaceSpec(OPLUS, 6))
    minus = build_space(SpaceSpec(OMINUS, 6))
    u5 = build_space(SpaceSpec(UNITARY, 5))
    n = 3
    for i in range(n):
        for j in range(n):
            e_i = np.eye(6, dtype=np.uint8)[i]
            f_j = np.eye(6, dtype=np.uint8)[n + j]
            assert bilinear(plus, e_i, f_j) == (1 if i == j else 0)
            assert bilinear(plus, e_i, np.eye(6, dtype=np.uint8)[j]) == 0
    # all basis vectors singular for plus type; Q(e_n) = Q(f_n) = 1 for minus
    assert all(quadratic(plus, np.eye(6, dtype=np.uint8)[k]) == 0 for k in range(6))
    qm = [quadratic(minus, np.eye(6, dtype=np.uint8)[k]) for k in range(6)]
    assert qm == [0, 0, 1, 0, 0, 1]
    # odd unitary: (g, g) = 1 and g orthogonal to everything else
    g = np.eye(5, dtype=np.uint8)[4]
    assert naive_hermitian(u5, g, g) == 1
    for k in range(4):
        assert naive_hermitian(u5, g, np.eye(5, dtype=np.uint8)[k]) == 0


def test_eval_form_examples():
    plus = build_space(SpaceSpec(OPLUS, 6))
    e1f1 = np.zeros(6, dtype=np.uint8)
    e1f1[0] = e1f1[3] = 1
    assert quadratic(plus, e1f1) == 1
    minus = build_space(SpaceSpec(OMINUS, 6))
    e3f3 = np.zeros(6, dtype=np.uint8)
    e3f3[2] = e3f3[5] = 1
    assert quadratic(minus, e3f3) == 1
    u4 = build_space(SpaceSpec(UNITARY, 4))
    v = np.zeros(4, dtype=np.uint8)
    v[0] = 1
    v[2] = GF4_T  # e1 + t f1
    assert naive_hermitian(u4, v, v) == 1  # t + t^2 = 1: nonsingular
    assert bilinear(u4, v, v) == 1
    with pytest.raises(ValueError):
        quadratic(u4, v)


def test_hermitian_conjugate_symmetry():
    u4 = build_space(SpaceSpec(UNITARY, 4))
    rng = np.random.default_rng(0)
    for _ in range(30):
        u = rng.integers(0, 4, size=4).astype(np.uint8)
        v = rng.integers(0, 4, size=4).astype(np.uint8)
        assert naive_hermitian(u4, u, v) == GF4_CONJ[naive_hermitian(u4, v, u)]
        assert bilinear(u4, u, v) == naive_hermitian(u4, u, v)


def naive_point_counts(space):
    """Independent oracle: classify every projective representative."""
    q, m = space.q, space.dim
    nonsing = sing = 0
    for coords in itertools.product(range(q), repeat=m):
        v = np.array(coords, dtype=np.uint8)
        if not v.any():
            continue
        first = next(c for c in coords if c)
        if first != 1:
            continue
        if q == 2:
            value = naive_quadratic(space, v)
        else:
            value = naive_hermitian(space, v, v)
        if value:
            nonsing += 1
        else:
            sing += 1
    return nonsing, sing


@pytest.mark.parametrize(
    "family,dim,nP,nP0",
    [(OPLUS, 6, 28, 35), (OMINUS, 6, 36, 27), (UNITARY, 4, 40, 45), (UNITARY, 5, 176, 165)],
)
def test_point_counts_against_naive_oracle(family, dim, nP, nP0):
    space = build_space(SpaceSpec(family, dim))
    assert naive_point_counts(space) == (nP, nP0)
    ps = enumerate_points(space)
    assert (ps.nP, ps.nP0) == (nP, nP0)


@pytest.mark.parametrize("family,dim", DESK)
def test_brute_equals_closed(family, dim):
    spec = SpaceSpec(family, dim)
    ps = enumerate_points(build_space(spec))
    assert brute_params(ps) == closed_params(spec)


def test_closed_param_examples():
    assert closed_params(SpaceSpec(OPLUS, 6)) == Rank3Params(28, 12, 15, 6, 4)
    assert closed_params(SpaceSpec(OMINUS, 6)) == Rank3Params(36, 20, 15, 10, 12)
    assert closed_params(SpaceSpec(UNITARY, 5)) == Rank3Params(176, 40, 135, 12, 8)
    assert closed_params(SpaceSpec(UNITARY, 4)) == Rank3Params(40, 12, 27, 2, 4)
    assert closed_params(SpaceSpec(OPLUS, 8)) == Rank3Params(120, 56, 63, 28, 24)
    assert closed_params(SpaceSpec(OMINUS, 8)) == Rank3Params(136, 72, 63, 36, 40)


@pytest.mark.parametrize("family", [OPLUS, OMINUS, UNITARY])
@pytest.mark.parametrize("n", range(3, 13))
def test_arithmetic_invariants_to_n12(family, n):
    dims = [2 * n] if family != UNITARY else [2 * n, 2 * n + 1]
    for dim in dims:
        spec = SpaceSpec(family, dim)
        p = closed_params(spec)  # the identities are checked in __post_init__
        assert p.a + p.b + 1 == p.v
        assert p.a * (p.a - p.r - 1) == p.b * p.s
        assert quadratic_roots(p) == root_pattern(spec)


def test_root_examples():
    assert quadratic_roots(closed_params(SpaceSpec(OPLUS, 6))) == (2, -4)
    assert quadratic_roots(closed_params(SpaceSpec(UNITARY, 4))) == (-2, 4)
    assert quadratic_roots(closed_params(SpaceSpec(UNITARY, 5))) == (4, -8)


def test_adjacency_symmetric_regular():
    for family, dim in [(OPLUS, 6), (UNITARY, 4), (UNITARY, 5)]:
        ps = enumerate_points(build_space(SpaceSpec(family, dim)))
        A = ps.adj
        assert (A == A.T).all()
        assert not A.diagonal().any()
        p = closed_params(SpaceSpec(family, dim))
        assert (A.sum(axis=1) == p.a).all()


def test_delta_convention_per_family():
    # orthogonal: neighbours are the NON-orthogonal pairs; unitary: orthogonal
    plus = build_space(SpaceSpec(OPLUS, 6))
    psp = enumerate_points(plus)
    i, j = 0, int(np.nonzero(psp.adj[0])[0][0])
    assert bilinear(plus, psp.P[i], psp.P[j]) == 1
    u4 = build_space(SpaceSpec(UNITARY, 4))
    psu = enumerate_points(u4)
    i, j = 0, int(np.nonzero(psu.adj[0])[0][0])
    assert naive_hermitian(u4, psu.P[i], psu.P[j]) == 0


def test_point_normalisation_unique():
    ps = enumerate_points(build_space(SpaceSpec(UNITARY, 4)))
    for rep in ps.P[:10]:
        first = rep[np.nonzero(rep)[0][0]]
        assert first == 1
        # the two other scalar multiples are not point codes
        from rank3mod.geometry import pack_codes

        for c in (GF4_T, GF4_T2):
            scaled = GF4_MUL[c, rep]
            assert int(pack_codes(scaled[None, :], 4)[0]) not in ps.P_codes


def test_cross_incidence_counts():
    # |Lambda(alpha)| = 2^{2n-2} - 1 for the plus family (independent count)
    space = build_space(SpaceSpec(OPLUS, 6))
    ps = enumerate_points(space)
    lam = ps.cross[0].sum()
    naive = sum(
        1
        for j in range(ps.nP0)
        if bilinear(space, ps.P[0], ps.P0[j]) == 0
    )
    assert lam == naive == 2**4 - 1
