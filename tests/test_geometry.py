"""Geometry tests.

The point-count oracles here re-enumerate every vector with a plain Python
form evaluator, independently of the vectorised production path.
"""

import itertools

import numpy as np
import pytest

from rank3mod import geometry
from rank3mod.fields import GF4_CONJ, GF4_MUL, GF4_T, GF4_T2
from rank3mod.geometry import (
    OMINUS,
    OPLUS,
    UNITARY,
    Rank3Params,
    SpaceSpec,
    brute_params,
    build_space,
    closed_params,
    enumerate_points,
    f4_pair_form,
    quadratic_roots,
    root_pattern,
)

from conftest import naive_form, naive_quadratic

DESK = [
    (OPLUS, 6), (OPLUS, 8), (OPLUS, 10),
    (OMINUS, 6), (OMINUS, 8), (OMINUS, 10),
    (UNITARY, 4), (UNITARY, 5), (UNITARY, 6), (UNITARY, 7),
]


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
            assert naive_form(plus, e_i, f_j) == (1 if i == j else 0)
            assert naive_form(plus, e_i, np.eye(6, dtype=np.uint8)[j]) == 0
    # all basis vectors singular for plus type; Q(e_n) = Q(f_n) = 1 for minus
    assert all(naive_quadratic(plus, np.eye(6, dtype=np.uint8)[k]) == 0 for k in range(6))
    qm = [naive_quadratic(minus, np.eye(6, dtype=np.uint8)[k]) for k in range(6)]
    assert qm == [0, 0, 1, 0, 0, 1]
    # odd unitary: (g, g) = 1 and g orthogonal to everything else
    g = np.eye(5, dtype=np.uint8)[4]
    assert naive_form(u5, g, g) == 1
    for k in range(4):
        assert naive_form(u5, g, np.eye(5, dtype=np.uint8)[k]) == 0


def test_eval_form_examples():
    plus = build_space(SpaceSpec(OPLUS, 6))
    e1f1 = np.zeros(6, dtype=np.uint8)
    e1f1[0] = e1f1[3] = 1
    assert naive_quadratic(plus, e1f1) == 1
    minus = build_space(SpaceSpec(OMINUS, 6))
    e3f3 = np.zeros(6, dtype=np.uint8)
    e3f3[2] = e3f3[5] = 1
    assert naive_quadratic(minus, e3f3) == 1
    u4 = build_space(SpaceSpec(UNITARY, 4))
    v = np.zeros(4, dtype=np.uint8)
    v[0] = 1
    v[2] = GF4_T  # e1 + t f1
    assert naive_form(u4, v, v) == 1  # t + t^2 = 1: nonsingular


def test_hermitian_conjugate_symmetry():
    u4 = build_space(SpaceSpec(UNITARY, 4))
    rng = np.random.default_rng(0)
    for _ in range(30):
        u = rng.integers(0, 4, size=4).astype(np.uint8)
        v = rng.integers(0, 4, size=4).astype(np.uint8)
        assert naive_form(u4, u, v) == GF4_CONJ[naive_form(u4, v, u)]


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
            value = naive_form(space, v, v)
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
    assert naive_form(plus, psp.P[i], psp.P[j]) == 1
    u4 = build_space(SpaceSpec(UNITARY, 4))
    psu = enumerate_points(u4)
    i, j = 0, int(np.nonzero(psu.adj[0])[0][0])
    assert naive_form(u4, psu.P[i], psu.P[j]) == 0


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
        if naive_form(space, ps.P[0], ps.P0[j]) == 0
    )
    assert lam == naive == 2**4 - 1


def _expected_adj(family, orth_PP):
    """The Delta-relation from the table of orthogonal pairs in P, by the family convention."""
    adj = orth_PP.copy() if family == UNITARY else ~orth_PP
    np.fill_diagonal(adj, False)
    return adj


@pytest.mark.parametrize(
    "family,dim", [(OPLUS, 6), (OMINUS, 6), (OPLUS, 8), (OMINUS, 8), (UNITARY, 4), (UNITARY, 5)]
)
def test_incidences_match_the_pair_by_pair_form(family, dim):
    space = build_space(SpaceSpec(family, dim))
    ps = enumerate_points(space)
    P, P0 = ps.P.tolist(), ps.P0.tolist()
    orth_PP = np.array([[naive_form(space, u, v) == 0 for v in P] for u in P])
    orth_PP0 = np.array([[naive_form(space, u, v) == 0 for v in P0] for u in P])
    assert ps.adj.dtype == ps.cross.dtype == bool
    assert np.array_equal(ps.adj, _expected_adj(family, orth_PP))
    assert np.array_equal(ps.cross, orth_PP0)


@pytest.mark.parametrize("family,dim", [(OPLUS, 10), (OMINUS, 10), (UNITARY, 6)])
def test_incidences_match_the_gram_product(family, dim):
    # f4_pair_form on F2 codes has a zero t part and the F2 form as its
    # constant part
    space = build_space(SpaceSpec(family, dim))
    ps = enumerate_points(space)
    orth_PP, orth_PP0 = [
        (c == 0) & (t == 0) for c, t in (f4_pair_form(space, ps.P, V) for V in (ps.P, ps.P0))
    ]
    assert np.array_equal(ps.adj, _expected_adj(family, orth_PP))
    assert np.array_equal(ps.cross, orth_PP0)


def test_incidences_are_built_blockwise_once(monkeypatch):
    # blocks that do not divide |P| give the same matrices, and a second read
    # returns the kept matrix
    space = build_space(SpaceSpec(UNITARY, 5))
    want = enumerate_points(space)
    monkeypatch.setattr(geometry, "ROW_BLOCK", 7)
    ps = enumerate_points(space)
    assert np.array_equal(ps.adj, want.adj) and np.array_equal(ps.cross, want.cross)
    assert ps.adj is ps.adj and ps.cross is ps.cross
