import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank3mod import linalg
from rank3mod.errors import CertificationError
from rank3mod.geometry import SpaceSpec, closed_params, quadratic_roots
from rank3mod.modules import (
    DenseRep,
    QuotCtx,
    intersect_sub,
    inner,
    perp,
    spin,
    submodule_from_rows,
    sum_sub,
)

from conftest import cached_pm


def params_of(family, dim):
    return closed_params(SpaceSpec(family, dim))


# ---------------------------------------------------------------------------
# distinguished vectors and the adjacency operator


def test_delta_sum_properties():
    pm = cached_pm("o+", 6, 5)
    d0 = pm.delta_sum(0)
    assert d0.sum() % 5 == 12 % 5 == 2
    assert d0[0] == 0
    for gi in range(pm.ctxP.ngens):
        g = pm.ctxP.perms[gi]
        lhs = pm.ctxP.act_rows(d0[None, :], gi)[0]
        rhs = pm.delta_sum(int(g[0]))
        assert (lhs == rhs).all()


def test_apply_T_on_all_ones_and_graph_submodule():
    pm = cached_pm("o+", 6, 5)
    ones = np.ones(28, dtype=np.int64)
    assert (pm.apply_T(ones) == (12 % 5) * ones % 5).all()
    # on the graph submodule for root c, T acts as -d
    U2 = pm.graph_submodule(2)
    img = pm.apply_T_rows(U2.basis)
    assert (img % 5 == (4 * U2.basis) % 5).all()  # -d = 4 for d = -4
    Um4 = pm.graph_submodule(-4)
    img = pm.apply_T_rows(Um4.basis)
    assert (img % 5 == ((-2) * Um4.basis) % 5).all()  # -c = -2


@pytest.mark.parametrize("family,dim,ell", [("o-", 6, 7), ("u", 4, 7), ("u", 5, 5)])
def test_adjacency_eigenvalues_on_graph_submodules(family, dim, ell):
    # T acts as -d on U'_c and as -c on U'_d, exactly per basis vector
    pm = cached_pm(family, dim, ell)
    p = params_of(family, dim)
    c, d = quadratic_roots(p)
    Uc = pm.graph_submodule(c)
    assert (pm.apply_T_rows(Uc.basis) == (-d % ell) * Uc.basis % ell).all()
    Ud = pm.graph_submodule(d)
    assert (pm.apply_T_rows(Ud.basis) == (-c % ell) * Ud.basis % ell).all()


def test_apply_T_equivariant_on_random_vectors():
    pm = cached_pm("o+", 6, 5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.integers(0, 5, size=28).astype(np.int64)
        for gi in range(pm.ctxP.ngens):
            lhs = pm.ctxP.act_rows(pm.apply_T(v)[None, :], gi)[0]
            rhs = pm.apply_T(pm.ctxP.act_rows(v[None, :], gi)[0])
            assert (lhs == rhs).all()


def test_v_c_identities():
    pm = cached_pm("o+", 6, 5)
    v2 = pm.v_c(2, 0)
    vm4 = pm.v_c(-4, 0)
    diff = (v2 - vm4) % 5
    e0 = np.zeros(28, dtype=np.int64)
    e0[0] = 1
    assert (diff == e0).all()  # 6 alpha = alpha mod 5
    assert (pm.v_c(0, 3) == pm.delta_sum(3)).all()


def test_inner_products_of_root_vectors():
    # <v_{c,a}, v_{d,b}> = s for the two roots, over 100 random pairs
    for family, dim, ell in [("o+", 6, 5), ("o-", 6, 3), ("u", 4, 3), ("u", 5, 3)]:
        pm = cached_pm(family, dim, ell)
        p = params_of(family, dim)
        c, d = quadratic_roots(p)
        rng = np.random.default_rng(11)
        for _ in range(100):
            i, j = rng.integers(0, p.v, size=2)
            val = inner(pm.v_c(c, int(i)), pm.v_c(d, int(j)), ell)
            assert val == p.s % ell


def test_inner_invariance_under_generators():
    pm = cached_pm("o+", 6, 7)
    rng = np.random.default_rng(5)
    u = rng.integers(0, 7, size=28).astype(np.int64)
    v = rng.integers(0, 7, size=28).astype(np.int64)
    for gi in range(pm.ctxP.ngens):
        gu = pm.ctxP.act_rows(u[None, :], gi)[0]
        gv = pm.ctxP.act_rows(v[None, :], gi)[0]
        assert inner(gu, gv, 7) == inner(u, v, 7)


# ---------------------------------------------------------------------------
# spinning


def test_spin_basics():
    pm = cached_pm("o+", 6, 5)
    ones = np.ones(28, dtype=np.int64)
    T = spin(pm.ctxP, [ones])
    assert T.dim == 1
    e01 = np.zeros(28, dtype=np.int64)
    e01[0], e01[1] = 1, 4
    S = spin(pm.ctxP, [e01])
    assert S.dim == 27
    assert spin(pm.ctxP, []).dim == 0
    # idempotent: spinning the basis returns the same submodule
    again = spin(pm.ctxP, list(S.basis))
    assert again == S


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_spin_idempotent_on_random_seeds(seed):
    pm = cached_pm("o+", 6, 3)
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 3, size=28).astype(np.int64)
    sub = spin(pm.ctxP, [v])
    assert spin(pm.ctxP, list(sub.basis)) == sub
    sub.certify_closed()


def test_spin_monotone():
    pm = cached_pm("o+", 6, 3)
    a = spin(pm.ctxP, [pm.v_c(2, 0) - pm.v_c(2, 1)])
    b = spin(pm.ctxP, [pm.v_c(2, 0) - pm.v_c(2, 1), np.ones(28, dtype=np.int64)])
    assert b.contains(a)


# ---------------------------------------------------------------------------
# graph submodules and U_c


ACCEPT_DIMS = [
    ("o+", 6, (7, 20)),
    ("o-", 6, (15, 20)),
    ("u", 4, (15, 24)),
    ("u", 5, (55, 120)),
]


@pytest.mark.parametrize("family,dim,expect", ACCEPT_DIMS)
@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_graph_submodule_dimension_propositions(family, dim, expect, ell):
    p = params_of(family, dim)
    c, d = quadratic_roots(p)
    split_value = {"o+": 2 ** (dim // 2) - 1, "o-": 2 ** (dim // 2) + 1,
                   "u": 2**dim - 1 if dim % 2 == 0 else 2**dim + 1}[family]
    if split_value % ell == 0:
        pytest.skip("ell divides the case's special divisor")
    pm = cached_pm(family, dim, ell)
    assert pm.graph_submodule(c).dim == expect[0]
    assert pm.graph_submodule(d).dim == expect[1]


@pytest.mark.parametrize("family,dim,expect", ACCEPT_DIMS)
def test_nonroot_graph_submodule_is_full_augmentation(family, dim, expect):
    ell = 13
    p = params_of(family, dim)
    c, d = quadratic_roots(p)
    nonroot = next(
        x for x in range(1, ell) if (x * x + (p.r - p.s) * x + (p.s - p.a)) % ell
    )
    pm = cached_pm(family, dim, ell)
    assert pm.graph_submodule(nonroot).dim == p.v - 1


def test_u4_ell3_u1_contains_all_ones():
    pm = cached_pm("u", 4, 3)
    U1 = pm.u_c(1)
    U1p = pm.graph_submodule(1)
    assert U1.dim == 11 and U1p.dim == 10
    assert U1.contains_vec(np.ones(40, dtype=np.int64))
    assert not U1p.contains_vec(np.ones(40, dtype=np.int64))


def test_oplus_ell3_u2_splits_off_trivial():
    pm = cached_pm("o+", 6, 3)
    U2 = pm.u_c(2)
    U2p = pm.graph_submodule(2)
    assert U2.dim == U2p.dim + 1
    assert not U2p.contains_vec(np.ones(28, dtype=np.int64))


def test_nonroot_u_c_is_everything():
    pm = cached_pm("o+", 6, 5)
    # 4 is not a root mod 5 and c + a = 16 != 0 mod 5, so U_4 is everything
    assert pm.u_c(4).dim == 28
    # 3 is also a non-root but 3 + a = 0 mod 5 puts the generators inside the
    # augmentation, so U_3 collapses to it
    assert pm.u_c(3).dim == 27


# ---------------------------------------------------------------------------
# distinguished submodules, perp, sums, quotients


def test_distinguished_sum_behaviour():
    # ell | |P|: T inside S; otherwise direct sum
    pm7 = cached_pm("o+", 6, 7)  # 28 = 0 mod 7
    S, T = pm7.distinguished()
    assert S.contains(T)
    pm5 = cached_pm("o+", 6, 5)
    S, T = pm5.distinguished()
    assert not S.contains(T)
    assert intersect_sub(S, T).dim == 0
    pm3 = cached_pm("u", 5, 3)  # 176 = 2 mod 3
    S, T = pm3.distinguished()
    assert intersect_sub(S, T).dim == 0
    assert sum_sub(S, T).dim == 176


def test_perp_properties():
    pm = cached_pm("o+", 6, 5)
    U2 = pm.graph_submodule(2)
    P = perp(U2)
    assert P.dim == 28 - U2.dim
    assert perp(P) == U2
    P.certify_closed()


def test_graph_submodules_orthogonal():
    pm = cached_pm("o+", 6, 3)
    U2p = pm.graph_submodule(2)
    U2 = pm.u_c(2)
    prods = linalg.matmul(U2p.basis, U2.basis.T, 3)
    assert not prods.any()


def test_sum_intersect_of_graph_submodules():
    pm = cached_pm("o+", 6, 5)
    A = pm.graph_submodule(2)
    B = pm.graph_submodule(-4)
    S, _T = pm.distinguished()
    assert sum_sub(A, B) == S
    assert intersect_sub(A, B).dim == 0


def test_quotient_certified_and_dims():
    pm = cached_pm("o+", 6, 3)
    U2 = pm.u_c(2)
    q = QuotCtx(pm.ctxP, perp(U2))
    assert q.dim == U2.dim  # FP / U^perp has the dimension of U (self-duality)
    # quotient action respects products: (v g) h matches v (gh) on a sample
    v = np.arange(q.dim, dtype=np.int64) % 3
    a = q.act_rows(q.act_rows(v[None, :], 0), 1)[0]
    lifted = q.lift_rows(v[None, :])
    amb = pm.ctxP.act_rows(pm.ctxP.act_rows(lifted, 0), 1)
    b = q.project_rows(amb)[0]
    assert (a == b).all()


def test_quotient_rejects_uncertified_subspace():
    pm = cached_pm("o+", 6, 3)
    rows = np.zeros((1, 28), dtype=np.int64)
    rows[0, 0] = 1
    with pytest.raises(CertificationError):
        submodule_from_rows(pm.ctxP, rows)  # a bare point line is not invariant


# ---------------------------------------------------------------------------
# cross maps Q and R


def test_q_r_equivariance_and_images():
    pm = cached_pm("o+", 6, 3)
    S, T = pm.distinguished()
    img = pm.q_image(S)
    assert img.dim > 1  # nonzero and not the all-ones line
    for gi in range(pm.ctxP.ngens):
        e0 = np.zeros(28, dtype=np.int64)
        e0[0] = 1
        lhs = pm.ctxP0.act_rows(pm.q_apply(e0)[None, :], gi)[0]
        rhs = pm.q_apply(pm.ctxP.act_rows(e0[None, :], gi)[0])
        assert (lhs == rhs).all()
    # R side
    ones0 = np.ones((1, pm.ctxP0.dim), dtype=np.int64)
    S0 = submodule_from_rows(pm.ctxP0, linalg.nullspace(ones0, 3))
    imgR = pm.r_image(S0)
    assert imgR.dim > 1


def test_q_coefficient_sum_is_lambda_count():
    pm = cached_pm("o+", 6, 5)
    e0 = np.zeros(28, dtype=np.int64)
    e0[0] = 1
    q = pm.q_apply(e0)
    assert q.sum() % 5 == 15 % 5


def test_adjacency_identity_on_full_basis():
    for family, dim, ell in [("o+", 6, 3), ("o-", 6, 5), ("u", 4, 7), ("u", 5, 3)]:
        pm = cached_pm(family, dim, ell)
        p = params_of(family, dim)
        A = pm._adj
        v = p.v
        lhs = (linalg.matmul(A, A, ell) - (p.r - p.s) * A) % ell
        lhs[np.arange(v), np.arange(v)] = (lhs.diagonal() - (p.a - p.s)) % ell
        assert (lhs == p.s % ell).all()


def reference_closure(action, seeds):
    """Row space of the seeds, closed by re-adding every generator image until it is stable."""
    ell = action.ell
    R, _ = linalg.rref(np.array(seeds, dtype=np.int64).reshape(-1, action.dim), ell)
    while True:
        imgs = [R] + [action.act_rows(R, i) for i in range(action.ngens)]
        R2, piv = linalg.rref(np.vstack(imgs), ell)
        if R2.shape[0] == R.shape[0]:
            return R2, piv
        R = R2


def _block_rep(n, s, ell, rng, ngens=2):
    """Dense rep in which the last s coordinates span a submodule."""
    mats = []
    for _ in range(ngens):
        M = rng.integers(0, ell, size=(n, n)).astype(np.int64)
        M[n - s :, : n - s] = 0
        mats.append(M)
    return DenseRep(ell, mats)


@pytest.mark.parametrize("ell", [3, 5])
def test_blocked_spin_matches_reference_closure(ell):
    rng = np.random.default_rng(ell)
    pm = cached_pm("u", 5, ell)  # 176 points: the spins cross several panels
    seeds = [(pm.v_c(1, 0) - pm.v_c(1, 5)) % ell, rng.integers(0, ell, size=pm.ctxP.dim)]
    for action, seed_list in [
        (pm.ctxP, seeds[:1]),
        (pm.ctxP, seeds),
        (_block_rep(140, 70, ell, rng), [np.eye(1, 140, 139, dtype=np.int64)[0]]),
        (_block_rep(140, 70, ell, rng), [rng.integers(0, ell, size=140)]),
    ]:
        R, piv = reference_closure(action, seed_list)
        sub = spin(action, seed_list)
        assert np.array_equal(sub.basis, R) and np.array_equal(sub.pivots, piv)
        for cap in (0, 1, len(piv) - 1, len(piv), len(piv) + 1):
            capped = spin(action, seed_list, cap_dim=cap)
            assert (capped is None) == (len(piv) > cap)
            if capped is not None:
                assert capped == sub
