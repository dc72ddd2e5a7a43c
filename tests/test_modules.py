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
    Submodule,
    spin,
    submodule_from_rows,
    sum_sub,
)

from conftest import (
    cached_analysis,
    cached_pm,
    contains,
    graph_submodule,
    image_dim,
    quotient_section,
    same_submodule,
    zero_sum_and_ones,
)


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
    assert (linalg.matmul(ones[None, :], pm._adj, 5)[0] == (12 % 5) * ones % 5).all()
    # on the graph submodule for root c, T acts as -d
    U2 = graph_submodule(pm, 2)
    img = linalg.matmul(U2.basis, pm._adj, 5)
    assert (img % 5 == (4 * U2.basis) % 5).all()  # -d = 4 for d = -4
    Um4 = graph_submodule(pm, -4)
    img = linalg.matmul(Um4.basis, pm._adj, 5)
    assert (img % 5 == ((-2) * Um4.basis) % 5).all()  # -c = -2


@pytest.mark.parametrize("family,dim,ell", [("o-", 6, 7), ("u", 4, 7), ("u", 5, 5)])
def test_adjacency_eigenvalues_on_graph_submodules(family, dim, ell):
    # T acts as -d on U'_c and as -c on U'_d, exactly per basis vector
    pm = cached_pm(family, dim, ell)
    p = params_of(family, dim)
    c, d = quadratic_roots(p)
    Uc = graph_submodule(pm, c)
    assert (linalg.matmul(Uc.basis, pm._adj, ell) == (-d % ell) * Uc.basis % ell).all()
    Ud = graph_submodule(pm, d)
    assert (linalg.matmul(Ud.basis, pm._adj, ell) == (-c % ell) * Ud.basis % ell).all()


def test_apply_T_equivariant_on_random_vectors():
    pm = cached_pm("o+", 6, 5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.integers(0, 5, size=28).astype(np.int64)
        for gi in range(pm.ctxP.ngens):
            lhs = pm.ctxP.act_rows(linalg.matmul(v[None, :], pm._adj, 5), gi)[0]
            rhs = linalg.matmul(pm.ctxP.act_rows(v[None, :], gi), pm._adj, 5)[0]
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
            val = linalg.matmul(pm.v_c(c, int(i))[None, :], pm.v_c(d, int(j))[:, None], ell)[0, 0]
            assert val == p.s % ell


def test_inner_invariance_under_generators():
    pm = cached_pm("o+", 6, 7)
    rng = np.random.default_rng(5)
    u = rng.integers(0, 7, size=28).astype(np.int64)
    v = rng.integers(0, 7, size=28).astype(np.int64)
    for gi in range(pm.ctxP.ngens):
        gu = pm.ctxP.act_rows(u[None, :], gi)[0]
        gv = pm.ctxP.act_rows(v[None, :], gi)[0]
        assert np.array_equal(
            linalg.matmul(gu[None, :], gv[:, None], 7), linalg.matmul(u[None, :], v[:, None], 7)
        )


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
    assert same_submodule(again, S)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_spin_idempotent_on_random_seeds(seed):
    pm = cached_pm("o+", 6, 3)
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 3, size=28).astype(np.int64)
    sub = spin(pm.ctxP, [v])
    assert same_submodule(spin(pm.ctxP, list(sub.basis)), sub)
    sub.certify_closed()


def test_spin_monotone():
    pm = cached_pm("o+", 6, 3)
    a = spin(pm.ctxP, [pm.v_c(2, 0) - pm.v_c(2, 1)])
    b = spin(pm.ctxP, [pm.v_c(2, 0) - pm.v_c(2, 1), np.ones(28, dtype=np.int64)])
    assert contains(b, a)


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
    assert graph_submodule(pm, c).dim == expect[0]
    assert graph_submodule(pm, d).dim == expect[1]


@pytest.mark.parametrize("family,dim,expect", ACCEPT_DIMS)
def test_nonroot_graph_submodule_is_full_augmentation(family, dim, expect):
    ell = 13
    p = params_of(family, dim)
    c, d = quadratic_roots(p)
    nonroot = next(
        x for x in range(1, ell) if (x * x + (p.r - p.s) * x + (p.s - p.a)) % ell
    )
    pm = cached_pm(family, dim, ell)
    assert graph_submodule(pm, nonroot).dim == p.v - 1


# U_c is spun from one v_{c,alpha}: v_{c,alpha} g = v_{c,alpha g} and the
# action is transitive


def test_u4_ell3_u1_contains_all_ones():
    pm = cached_pm("u", 4, 3)
    U1 = spin(pm.ctxP, [pm.v_c(1, 0)])
    U1p = graph_submodule(pm, 1)
    assert U1.dim == 11 and U1p.dim == 10
    ones = np.ones(40, dtype=np.int64)
    assert linalg.in_rowspace(ones, U1.basis, U1.pivots, 3)
    assert not linalg.in_rowspace(ones, U1p.basis, U1p.pivots, 3)


def test_oplus_ell3_u2_splits_off_trivial():
    pm = cached_pm("o+", 6, 3)
    U2 = spin(pm.ctxP, [pm.v_c(2, 0)])
    U2p = graph_submodule(pm, 2)
    assert U2.dim == U2p.dim + 1
    assert not linalg.in_rowspace(np.ones(28, dtype=np.int64), U2p.basis, U2p.pivots, 3)


def test_nonroot_u_c_is_everything():
    pm = cached_pm("o+", 6, 5)
    # 4 is not a root mod 5 and c + a = 16 != 0 mod 5, so U_4 is everything
    assert spin(pm.ctxP, [pm.v_c(4, 0)]).dim == 28
    # 3 is also a non-root but 3 + a = 0 mod 5 puts the generators inside the
    # augmentation, so U_3 collapses to it
    assert spin(pm.ctxP, [pm.v_c(3, 0)]).dim == 27


# ---------------------------------------------------------------------------
# distinguished submodules, perp, sums, quotients


def test_distinguished_sum_behaviour():
    # ell | |P|: T inside S; otherwise direct sum
    pm7 = cached_pm("o+", 6, 7)  # 28 = 0 mod 7
    S, T = zero_sum_and_ones(pm7)
    assert contains(S, T)
    pm5 = cached_pm("o+", 6, 5)
    S, T = zero_sum_and_ones(pm5)
    assert not contains(S, T)
    assert linalg.rowspace_intersect(S.basis, S.pivots, T.basis, 5)[0].shape[0] == 0
    pm3 = cached_pm("u", 5, 3)  # 176 = 2 mod 3
    S, T = zero_sum_and_ones(pm3)
    assert linalg.rowspace_intersect(S.basis, S.pivots, T.basis, 3)[0].shape[0] == 0
    assert sum_sub(S, T).dim == 176


def test_perp_properties():
    pm = cached_pm("o+", 6, 5)
    U2 = graph_submodule(pm, 2)
    P = submodule_from_rows(pm.ctxP, linalg.nullspace(U2.basis, 5))
    assert P.dim == 28 - U2.dim
    assert same_submodule(submodule_from_rows(pm.ctxP, linalg.nullspace(P.basis, 5)), U2)
    P.certify_closed()


def test_certify_closed_refuses_a_line_that_is_not_invariant():
    pm = cached_pm("o+", 6, 3)
    rng = np.random.default_rng(3)
    v = rng.integers(0, 3, size=(1, 28))
    v[0, 0] = 1
    assert not linalg.in_rowspace(np.ones((1, 28), dtype=np.int64), *linalg.rref(v, 3), 3)
    with pytest.raises(CertificationError):
        submodule_from_rows(pm.ctxP, v)


def test_certify_closed_on_named_rows():
    # N = U'_2 is closed; N + <1> is closed and N + <random> is not, and
    # testing the new row alone decides it
    pm = cached_pm("o+", 6, 5)
    N = graph_submodule(pm, 2)
    rng = np.random.default_rng(5)
    for rows, closed in [(np.ones((1, 28), dtype=np.int64), True), (rng.integers(0, 5, size=(1, 28)), False)]:
        sub = Submodule(pm.ctxP, *linalg.rowspace_sum(N.basis, N.pivots, rows, 5))
        assert sub.dim == N.dim + 1
        for check in (lambda: sub.certify_closed(rows), sub.certify_closed):
            if closed:
                check()
            else:
                with pytest.raises(CertificationError, match="not closed under generator"):
                    check()


def test_spin_to_everything_returns_the_identity_basis():
    # the group is transitive on P, so one point spins to all of F_ell[P]
    pm = cached_pm("o+", 6, 3)
    W = spin(pm.ctxP, [np.eye(28, dtype=np.int64)[5]])
    assert np.array_equal(W.basis, np.eye(28, dtype=W.basis.dtype))
    assert np.array_equal(W.pivots, np.arange(28))


def test_graph_submodules_orthogonal():
    pm = cached_pm("o+", 6, 3)
    U2p = graph_submodule(pm, 2)
    U2 = spin(pm.ctxP, [pm.v_c(2, 0)])
    prods = linalg.matmul(U2p.basis, U2.basis.T, 3)
    assert not prods.any()


def test_sum_intersect_of_graph_submodules():
    pm = cached_pm("o+", 6, 5)
    A = graph_submodule(pm, 2)
    B = graph_submodule(pm, -4)
    S, _T = zero_sum_and_ones(pm)
    assert same_submodule(sum_sub(A, B), S)
    assert linalg.rowspace_intersect(A.basis, A.pivots, B.basis, 5)[0].shape[0] == 0


def test_quotient_certified_and_dims():
    pm = cached_pm("o+", 6, 3)
    U2 = spin(pm.ctxP, [pm.v_c(2, 0)])
    q = QuotCtx(pm.ctxP, submodule_from_rows(pm.ctxP, linalg.nullspace(U2.basis, 3)))
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
    C = pm._cross
    assert image_dim(C, 3) > 1  # nonzero and not the all-ones line
    for gi in range(pm.ctxP.ngens):
        e0 = np.zeros(28, dtype=np.int64)
        e0[0] = 1
        lhs = pm.ctxP0.act_rows(linalg.matmul(e0[None, :], pm._cross, 3), gi)[0]
        rhs = linalg.matmul(pm.ctxP.act_rows(e0[None, :], gi), pm._cross, 3)[0]
        assert (lhs == rhs).all()
    # R side: the zero-sum module of F_ell[P0] spans the column differences
    assert image_dim(C.T, 3) > 1
    # the closed forms agree with the images of the spanned modules
    S, _T = zero_sum_and_ones(pm)
    assert linalg.rank(linalg.matmul(S.basis, C, 3), 3) == image_dim(C, 3)


def test_q_coefficient_sum_is_lambda_count():
    pm = cached_pm("o+", 6, 5)
    e0 = np.zeros(28, dtype=np.int64)
    e0[0] = 1
    q = linalg.matmul(e0[None, :], pm._cross, 5)[0]
    assert q.sum() % 5 == 15 % 5


def test_adjacency_identity_on_full_basis():
    for family, dim, ell in [("o+", 6, 3), ("o-", 6, 5), ("u", 4, 7), ("u", 5, 3)]:
        pm = cached_pm(family, dim, ell)
        p = params_of(family, dim)
        A = pm._adj
        v = p.v
        lhs = (linalg.matmul(A, A, ell) - (p.r - p.s) % ell * A) % ell
        lhs[np.arange(v), np.arange(v)] = (lhs.diagonal() - (p.a - p.s) % ell) % ell
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
                assert same_submodule(capped, sub)


def _per_generator_spin(action, seeds, cap_dim=None):
    """`spin` merging one generator's images at a time, the block of a round
    being the rows each merge added: the reference for one merge per round."""
    ell = action.ell
    basis, pivots = linalg.rref(np.array(list(seeds)).reshape(-1, action.dim), ell)
    if cap_dim is not None and len(pivots) > cap_dim:
        return None
    block = basis
    while len(block) and len(pivots) < action.dim:
        found = []
        for i in range(action.ngens):
            basis, merged = linalg.rowspace_sum(basis, pivots, action.act_rows(block, i), ell)
            new = np.ones(len(merged), dtype=bool)
            new[np.searchsorted(merged, pivots)] = False
            found.append(basis[new])
            pivots = merged
            if cap_dim is not None and len(pivots) > cap_dim:
                return None
        block = np.vstack(found)
    return Submodule(action, basis, pivots)


@pytest.mark.parametrize("ell", [3, 5])
def test_spin_merges_once_a_round_as_the_per_generator_merges(monkeypatch, ell):
    rng = np.random.default_rng(10 + ell)
    pm = cached_pm("u", 5, ell)
    M = pm.ctxP
    seeds = [(pm.v_c(1, 0) - pm.v_c(1, 5)) % ell, rng.integers(0, ell, size=M.dim)]
    quots = [QuotCtx(M, graph_submodule(pm, 1)), QuotCtx(M, zero_sum_and_ones(pm)[1])]
    cases = [
        (M, seeds[:1]),
        (M, seeds),
        *[(quot, [rng.integers(0, ell, size=quot.dim)]) for quot in quots],
        (_block_rep(140, 70, ell, rng, ngens=3), [np.eye(1, 140, 139, dtype=np.int64)[0]]),
        (_block_rep(140, 70, ell, rng, ngens=3), [rng.integers(0, ell, size=140)]),
    ]
    for action, seed_list in cases:
        want = _per_generator_spin(action, seed_list)
        merges, acts = [], []
        rowspace_sum, act_rows = linalg.rowspace_sum, action.act_rows
        monkeypatch.setattr(linalg, "rowspace_sum", lambda *a: merges.append(1) or rowspace_sum(*a))
        monkeypatch.setattr(action, "act_rows", lambda V, i: acts.append(i) or act_rows(V, i))
        got = spin(action, seed_list)
        monkeypatch.undo()
        assert np.array_equal(got.basis, want.basis) and np.array_equal(got.pivots, want.pivots)
        # one merge per round of ngens images, and ngens more for the closure
        # check, which the whole space skips
        check = int(got.dim < action.dim)
        assert len(acts) == action.ngens * (len(merges) + check)
        d = got.dim
        for cap in (0, 1, d - 1, d, d + 1):
            capped = spin(action, seed_list, cap_dim=cap)
            ref = _per_generator_spin(action, seed_list, cap_dim=cap)
            assert (capped is None) == (ref is None) == (d > cap)
            if capped is not None:
                assert np.array_equal(capped.basis, ref.basis)


@pytest.mark.parametrize("family,size,ell", [("o+", 4, 3), ("u", 5, 3)])
def test_quotient_of_m_acts_as_its_generator_matrices_without_forming_them(family, size, ell):
    # against the generator matrices of M / N as a section with a lift, and
    # against lifting to M, permuting and projecting back
    res = cached_analysis(family, size, ell)
    M = res.pm.ctxP
    rng = np.random.default_rng(ell)
    nodes = [n for n in res.lattice.nodes if n.dim < M.dim]
    assert len(nodes) > 3 and any(n.dim == 0 for n in nodes)
    for node in nodes:
        quot, ref = QuotCtx(M, node.sub), quotient_section(node.sub)
        V = np.vstack([np.eye(quot.dim, dtype=np.int64)[:3], rng.integers(0, ell, size=(5, quot.dim))])
        V = linalg.asmat(V, ell)
        for i in range(M.ngens):
            got = quot.act_rows(V, i)
            assert got.dtype == V.dtype
            assert np.array_equal(got, linalg.matmul(V, ref.gen_matrix(i), ell))
            assert np.array_equal(got, quot.project_rows(M.act_rows(quot.lift_rows(V), i)))
        # no generator matrix is formed: the only matrices kept are the
        # blocks of N's basis the gathers read
        assert not [m for m in vars(quot).values() if isinstance(m, np.ndarray) and m.ndim == 2]
        assert all(moves[-1].shape[1] == quot.dim for moves in quot._moves.values())
