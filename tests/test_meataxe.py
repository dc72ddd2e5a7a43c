from collections import Counter

import numpy as np
import pytest

from rank3mod import linalg
from rank3mod.errors import BudgetExceededError, CertificationError
from rank3mod.meataxe import (
    Meataxe,
    _mat_inverse,
    _replay,
    _standard_schedule,
    krylov_annihilator,
    transpose_action,
)
from rank3mod.modules import DenseRep, spin, sub_rep

from conftest import cached_pm


def chop_dims(mt, total):
    return sorted((mt.classes[i].dim, m) for i, m in total.items())


def test_chop_oplus3_ell3():
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    total = mt.chop(pm.ctxP)
    assert chop_dims(mt, total) == [(1, 1), (7, 2), (13, 1)]
    # the dim-7 factor appears twice but as ONE isomorphism class
    sevens = [i for i in total if mt.classes[i].dim == 7]
    assert len(sevens) == 1 and total[sevens[0]] == 2


def test_chop_oplus3_ell5_semisimple():
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    total = mt.chop(pm.ctxP)
    assert chop_dims(mt, total) == [(1, 1), (7, 1), (20, 1)]


def test_chop_zero_module():
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    zero = DenseRep(5, [np.zeros((0, 0), dtype=np.int64)] * pm.ctxP.ngens)
    assert mt.chop(zero) == Counter()


def test_trivial_vs_sign_classes_not_isomorphic():
    pm = cached_pm("o-", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    total = mt.chop(pm.ctxP)
    ones = sorted(i for i in total if mt.classes[i].dim == 1)
    assert len(ones) == 2
    trivial = [i for i in ones if mt.classes[i].trivial]
    sign = [i for i in ones if not mt.classes[i].trivial]
    assert len(trivial) == 1 and len(sign) == 1
    assert not mt.is_iso(trivial[0], sign[0])
    assert mt.is_iso(trivial[0], trivial[0])


def test_is_iso_on_conjugated_rep():
    # the same factor written in a scrambled basis must be recognised
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    total = mt.chop(pm.ctxP)
    seven = next(i for i in total if mt.classes[i].dim == 7)
    rep = mt.classes[seven].rep
    rng = np.random.default_rng(42)
    while True:
        C = rng.integers(0, 3, size=(7, 7)).astype(np.int64)
        from rank3mod import linalg

        if linalg.rank(C, 3) == 7:
            break
    Cinv = _inv_mod(C, 3)
    conj = DenseRep(3, [(Cinv @ rep.gen_matrix(i) @ C) % 3 for i in range(rep.ngens)])
    assert mt.is_iso_rep(seven, conj)


def _inv_mod(A, ell):
    from rank3mod import linalg

    n = A.shape[0]
    aug = np.hstack([A % ell, np.eye(n, dtype=np.int64)])
    R, _ = linalg.rref(aug, ell)
    return R[:, n:]


def test_abs_irred_certificates():
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    total = mt.chop(pm.ctxP)
    mt.ensure_peaks()
    for i in total:
        assert mt.classes[i].abs_irred
        assert mt.end_dim(i) == 1


def test_socle_of_augmentation_oplus3_ell3():
    # the zero-sum submodule is uniserial X - Z - X at ell = 3
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    S, _T = pm.distinguished()
    rep = sub_rep(S)
    layers = mt.socle_series(rep)
    dims = [sorted((mt.classes[i].dim, t) for i, t in lay.items()) for lay in layers]
    assert dims == [[(7, 1)], [(13, 1)], [(7, 1)]]
    # head-socle symmetry of the self-dual module with simple socle: the top
    # layer is the same isomorphism class as the socle
    assert layers[0] == layers[-1]
    (top_cls,) = layers[-1]
    (soc_cls,) = layers[0]
    assert mt.is_iso(top_cls, soc_cls)


def test_socle_series_u5_ell3_augmentation():
    # spec'd example: X - Z - (FF + W) - Z - X
    pm = cached_pm("u", 5, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    S, _T = pm.distinguished()
    layers = mt.socle_series(sub_rep(S))
    dims = [sorted((mt.classes[i].dim, t) for i, t in lay.items()) for lay in layers]
    assert dims == [[(55, 1)], [(10, 1)], [(1, 1), (44, 1)], [(10, 1)], [(55, 1)]]


def test_socle_of_semisimple_is_everything():
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    soc, factors = mt.socle(pm.ctxP)
    assert soc.dim == 28
    layers = mt.socle_series(pm.ctxP)
    assert len(layers) == 1


def test_lattice_boolean_for_multiplicity_free_semisimple():
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    lat = mt.lattice(pm.ctxP)
    assert len(lat.nodes) == 8
    assert len(lat.edges) == 12
    assert sorted(n.dim for n in lat.nodes) == [0, 1, 7, 8, 20, 21, 27, 28]


def test_lattice_uniserial_plus_simple_oplus3_ell7():
    pm = cached_pm("o+", 6, 7)
    mt = Meataxe(7, pm.ctxP.ngens, seed=0)
    lat = mt.lattice(pm.ctxP)
    assert len(lat.nodes) == 8
    assert sorted(n.dim for n in lat.nodes) == [0, 1, 7, 8, 20, 21, 27, 28]
    # containment chain through dims 1 < 20 < 21 exists (T < U' < U)
    by_dim = {n.dim: n for n in lat.nodes}
    assert by_dim[20].sub.contains(by_dim[1].sub)
    assert by_dim[21].sub.contains(by_dim[20].sub)


def test_lattice_u4_ell3_diamond():
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    lat = mt.lattice(pm.ctxP)
    assert len(lat.nodes) == 12
    assert sorted(n.dim for n in lat.nodes) == [0, 1, 10, 11, 15, 16, 24, 25, 29, 30, 39, 40]


def test_lattice_length_bound():
    pm = cached_pm("u", 5, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    with pytest.raises(BudgetExceededError):
        mt.lattice(pm.ctxP, length_bound=3)


def test_determinism_same_seed_same_lattice():
    def run():
        pm = cached_pm("o-", 6, 3)
        mt = Meataxe(3, pm.ctxP.ngens, seed=7)
        lat = mt.lattice(pm.ctxP)
        return [(n.dim, n.sub.key()) for n in lat.nodes], [
            (a, b) for a, b, _ in lat.edges
        ]

    assert run() == run()


def test_transpose_action_roundtrip():
    pm = cached_pm("o+", 6, 3)
    tr = transpose_action(pm.ctxP)
    v = np.arange(28, dtype=np.int64) % 3
    for gi in range(pm.ctxP.ngens):
        a = tr.act_rows(v[None, :], gi)[0]
        M = pm.ctxP.gen_matrix(gi).T
        assert (a == (v @ M) % 3).all()


def test_spin_cap_aborts():
    pm = cached_pm("o+", 6, 3)
    e01 = np.zeros(28, dtype=np.int64)
    e01[0], e01[1] = 1, 2
    assert spin(pm.ctxP, [e01], cap_dim=5) is None


# ---------------------------------------------------------------------------
# Krylov annihilators and the inverse, over the panel kernel


def _block_theta(n, s, ell, rng):
    """Random n x n matrix under which the last s coordinates span an invariant subspace."""
    theta = rng.integers(0, ell, size=(n, n)).astype(np.int64)
    theta[n - s :, : n - s] = 0
    return theta


@pytest.mark.parametrize("ell", [3, 17])
@pytest.mark.parametrize("s", [1, 63, 64, 65, 130, 150])
def test_krylov_annihilator_least_monic(ell, s):
    n = 150
    rng = np.random.default_rng(ell * 1000 + s)
    theta = _block_theta(n, s, ell, rng)
    v = np.zeros(n, dtype=np.int64)
    v[n - s :] = rng.integers(0, ell, size=s)
    v[n - 1] = 1
    p, kry = krylov_annihilator(theta, v, ell)
    d = len(p) - 1
    assert p[-1] == 1 and d <= s
    # the Krylov rows are v theta^i, i < d
    w = v.copy()
    for i in range(d):
        assert np.array_equal(kry[i], w)
        w = (w @ theta) % ell
    # v p(theta) = 0, and the rows are independent, so no lower degree works
    acc = np.zeros(n, dtype=np.int64)
    w = v.copy()
    for c in p:
        acc = (acc + int(c) * w) % ell
        w = (w @ theta) % ell
    assert not acc.any()
    assert linalg.rank(kry, ell) == d


def test_krylov_annihilator_of_zero_vector():
    p, kry = krylov_annihilator(np.eye(70, dtype=np.int64), np.zeros(70, dtype=np.int64), 5)
    assert list(p) == [1] and kry.shape == (0, 70)


def test_mat_inverse_inverts_and_refuses_singular():
    ell = 7
    rng = np.random.default_rng(8)
    while True:
        A = rng.integers(0, ell, size=(70, 70)).astype(np.int64)
        if linalg.rank(A, ell) == 70:
            break
    assert np.array_equal(linalg.matmul(A, _mat_inverse(A, ell), ell), np.eye(70, dtype=np.int64))
    S = A.copy()
    S[69] = (2 * S[3] + S[68]) % ell
    with pytest.raises(CertificationError):
        _mat_inverse(S, ell)


@pytest.mark.parametrize("family,dim,ell", [("o+", 6, 3), ("u", 4, 3), ("o-", 6, 7)])
def test_standard_schedule_replays_its_own_spin(family, dim, ell):
    pm = cached_pm(family, dim, ell)
    mt = Meataxe(ell, pm.ctxP.ngens, seed=1)
    mt.chop(pm.ctxP)
    rng = np.random.default_rng(dim)
    for cls in mt.classes:
        if cls.dim == 1:
            continue
        seed = mt._nullity1_kernel(cls)
        sched = _standard_schedule(cls.rep, seed)
        # the accepted raw vectors are a basis, found in BFS order from the seed
        assert sched.raw.shape == (cls.dim, cls.dim) and linalg.rank(sched.raw, ell) == cls.dim
        assert np.array_equal(sched.raw[0], seed)
        # the identity and a scalar are homomorphisms; a random seed is not one
        assert np.array_equal(_replay(sched, cls.rep, seed), sched.raw)
        assert np.array_equal(_replay(sched, cls.rep, 2 * seed % ell), 2 * sched.raw % ell)
        assert _replay(sched, cls.rep, rng.integers(0, ell, size=cls.dim)) is None
