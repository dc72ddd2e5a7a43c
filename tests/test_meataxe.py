from collections import Counter

import numpy as np
import pytest

from rank3mod import linalg, meataxe
from rank3mod.analyze import run_analysis
from rank3mod.cli import SUITE_INSTANCES
from rank3mod.errors import BudgetExceededError, CertificationError
from rank3mod.fields import storage_dtype
from rank3mod.meataxe import (
    Lattice,
    Meataxe,
    _shifted,
    krylov_annihilator,
    left_kernel,
    transpose_action,
)
from rank3mod.modules import DenseRep, QuotCtx, eigen_split, spin, sub_rep, sum_sub

from conftest import cached_pm, contains, zero_sum_and_ones


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
    assert not mt.is_iso_rep(trivial[0], mt.classes[sign[0]].rep)
    assert mt.is_iso_rep(trivial[0], mt.classes[trivial[0]].rep)


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


def test_register_maps_an_isomorphic_copy_to_its_class():
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    count = len(mt.classes)
    rng = np.random.default_rng(7)
    for idx in range(count):
        assert mt.register(_conjugated(mt.classes[idx].rep, 3, rng)) == idx
    assert len(mt.classes) == count
    # the generators of the dim-7 class rotated by one generate the same
    # matrix algebra, so the rep is simple, but it is not isomorphic
    seven = next(i for i, c in enumerate(mt.classes) if c.dim == 7)
    rep = mt.classes[seven].rep
    rot = DenseRep(3, [rep.gen_matrix((i + 1) % rep.ngens) for i in range(rep.ngens)])
    assert _hom_dim(rep, rot, 3) == 0
    assert mt.register(rot) == count
    assert len(mt.classes) == count + 1 and mt.classes[count].dim == 7


def _conjugated(rep, ell, rng):
    """rep written in a random basis: C^-1 rep(g) C for a random invertible C."""
    d = rep.dim
    while True:
        C = rng.integers(0, ell, size=(d, d)).astype(np.int64)
        if linalg.rank(C, ell) == d:
            break
    Cinv = _inv_mod(C, ell).astype(np.int64)
    return DenseRep(ell, [(Cinv @ rep.gen_matrix(i) @ C) % ell for i in range(rep.ngens)])


def _inv_mod(A, ell):
    from rank3mod import linalg

    n = A.shape[0]
    aug = np.hstack([A % ell, np.eye(n, dtype=np.int64)])
    R, _ = linalg.rref(aug, ell)
    return R[:, n:]


def _hom_dim(S, T, ell):
    """dim Hom(S, T): the nullity of the stacked S(g) (x) I - I (x) T(g)^T.

    With row-major vec, vec(S(g) X - X T(g)) = (S(g) (x) I - I (x) T(g)^T) vec(X).
    """
    d, e = S.dim, T.dim
    blocks = [
        np.kron(S.gen_matrix(i).astype(np.int64), np.eye(e, dtype=np.int64))
        - np.kron(np.eye(d, dtype=np.int64), T.gen_matrix(i).astype(np.int64).T)
        for i in range(S.ngens)
    ]
    return d * e - linalg.rank(np.vstack(blocks) % ell, ell)


@pytest.mark.parametrize("family,dim", [("o+", 6), ("o-", 6), ("u", 4)])
def test_is_iso_rep_matches_hom_reference(family, dim):
    # every class of dim <= 14 against a conjugated copy (isomorphic) and a
    # copy with its generators rotated by one (not isomorphic)
    ell = 3
    pm = cached_pm(family, dim, ell)
    mt = Meataxe(ell, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    rng = np.random.default_rng(dim)
    spin_decided = 0
    for idx, cls in enumerate(mt.classes):
        if cls.dim > 14:
            continue
        rep, d = cls.rep, cls.dim
        conj = _conjugated(rep, ell, rng)
        rot = DenseRep(ell, [rep.gen_matrix((i + 1) % rep.ngens) for i in range(rep.ngens)])
        assert _hom_dim(rep, conj, ell) == 1
        assert mt.is_iso_rep(idx, conj)
        iso_rot = mt.is_iso_rep(idx, rot)
        assert iso_rot == (_hom_dim(rep, rot, ell) > 0)
        if d > 1:
            assert not iso_rot
            word, lam = mt._nullity1_word(idx)
            spin_decided += left_kernel(_shifted(word, rot, lam), ell).shape[0] == 1
    # at least one negative answer came from the spin, not an early exit
    assert spin_decided >= 1


def test_abs_irred_certificates():
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    total = mt.chop(pm.ctxP)
    mt.ensure_peaks()
    for i in total:
        word, lam = mt.classes[i].word
        assert mt.classes[i].nullity_of(word, lam, 3) == 1


def test_chop_word_becomes_the_class_word_and_a_separating_one_is_kept(monkeypatch):
    # the linear Norton certificate of the chop hands its word to register;
    # ensure_peaks keeps each word that separates and searches for no other
    norton, searched = [], []
    register, search = Meataxe.register, Meataxe._nullity1_search

    def noted(self, rep, word=None):
        idx = register(self, rep, word)
        if word is not None:
            norton.append((idx, word))
        return idx

    def counted(self, idx, tag, separating):
        searched.append((idx, tag))
        return search(self, idx, tag, separating)

    monkeypatch.setattr(Meataxe, "register", noted)
    monkeypatch.setattr(Meataxe, "_nullity1_search", counted)
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    first = {}
    for idx, word in norton:
        first.setdefault(idx, word)
    assert first and all(mt.classes[idx].word == word for idx, word in first.items())
    kept = {i: c.word for i, c in enumerate(mt.classes) if c.word and mt._peak_ok(*c.word, i)}
    assert kept
    searched.clear()
    mt.ensure_peaks()
    assert {idx for idx, _tag in searched}.isdisjoint(kept)
    assert all(mt.classes[i].word == word for i, word in kept.items())
    for i, cls in enumerate(mt.classes):
        assert cls.nullity_of(*cls.word, 3) == 1 and mt._peak_ok(*cls.word, i)


def test_socle_of_augmentation_oplus3_ell3():
    # the zero-sum submodule is uniserial X - Z - X at ell = 3
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    S, _T = zero_sum_and_ones(pm)
    rep = sub_rep(S)
    layers = mt.socle_series(rep, mt.lattice(rep))
    dims = [sorted((mt.classes[i].dim, t) for i, t in lay.items()) for lay in layers]
    assert dims == [[(7, 1)], [(13, 1)], [(7, 1)]]
    # head-socle symmetry of the self-dual module with simple socle: the top
    # layer is the same isomorphism class as the socle
    assert layers[0] == layers[-1]
    (top_cls,) = layers[-1]
    (soc_cls,) = layers[0]
    assert mt.is_iso_rep(top_cls, mt.classes[soc_cls].rep)


def test_socle_series_u5_ell3_augmentation():
    # spec'd example: X - Z - (FF + W) - Z - X
    pm = cached_pm("u", 5, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    S, _T = zero_sum_and_ones(pm)
    rep = sub_rep(S)
    layers = mt.socle_series(rep, mt.lattice(rep))
    dims = [sorted((mt.classes[i].dim, t) for i, t in lay.items()) for lay in layers]
    assert dims == [[(55, 1)], [(10, 1)], [(1, 1), (44, 1)], [(10, 1)], [(55, 1)]]


def test_socle_of_semisimple_is_everything():
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    layers = mt.socle_series(pm.ctxP, mt.lattice(pm.ctxP))
    assert len(layers) == 1
    assert sum(mt.classes[i].dim * t for i, t in layers[0].items()) == 28


def _without(lat, ident=None, edge=None):
    """A copy of lat without one node (and its edges) or without one edge."""
    nodes = [n for n in lat.nodes if n.ident != ident]
    edges = [e for e in lat.edges if e != edge and ident not in e[:2]]
    return Lattice(nodes, edges)


def test_socle_series_refuses_a_lattice_with_a_node_or_an_edge_removed():
    # on the uniserial X - Z - X every node and every edge is on the socle walk
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    rep = sub_rep(zero_sum_and_ones(pm)[0])
    lat = mt.lattice(rep)
    assert len(mt.socle_series(rep, lat)) == 3
    assert len(lat.nodes) == 4 and len(lat.edges) == 3
    for node in lat.nodes:
        with pytest.raises(CertificationError):
            mt.socle_series(rep, _without(lat, ident=node.ident))
    for edge in lat.edges:
        with pytest.raises(CertificationError):
            mt.socle_series(rep, _without(lat, edge=edge))
    # on the U4(2) diamond the socle of the whole module is one node; without
    # it the sum of the zero node's covers is no node
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    lat = mt.lattice(pm.ctxP)
    (first, *_rest) = mt.socle_series(pm.ctxP, lat)
    soc_dim = sum(mt.classes[i].dim * t for i, t in first.items())
    (soc,) = [n for n in lat.nodes if n.dim == soc_dim and n.factors == first]
    with pytest.raises(CertificationError):
        mt.socle_series(pm.ctxP, _without(lat, ident=soc.ident))


def test_certify_lattice_refuses_a_lattice_with_a_node_or_an_edge_removed():
    # O+6(2), ell = 5: the boolean lattice of three simple summands
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    lat = mt.lattice(pm.ctxP)
    assert len(lat.nodes) == 8 and len(lat.edges) == 12
    mt._certify_lattice(lat, pm.ctxP)
    for node in lat.nodes:
        with pytest.raises(CertificationError):
            mt._certify_lattice(_without(lat, ident=node.ident), pm.ctxP)
    for edge in lat.edges:
        with pytest.raises(CertificationError):
            mt._certify_lattice(_without(lat, edge=edge), pm.ctxP)
    # the rank is taken of the smaller basis: in node order the dims are
    # 0, 20, 7, 1, 27, 21, 8, 28, so in the incomparable pairs (20, 7),
    # (27, 21) and (21, 8) the smaller node comes second
    assert [n.dim for n in lat.nodes] == [0, 20, 7, 1, 27, 21, 8, 28]
    # O+6(2), ell = 3: the uniserial X - Z - X zero-sum submodule, where a
    # missing middle node or edge leaves two nested nodes looking incomparable
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    rep = sub_rep(zero_sum_and_ones(pm)[0])
    lat = mt.lattice(rep)
    assert sorted(n.dim for n in lat.nodes) == [0, 7, 20, 27]
    mt._certify_lattice(lat, rep)
    for node in lat.nodes:
        if 0 < node.dim < rep.dim:
            with pytest.raises(CertificationError):
                mt._certify_lattice(_without(lat, ident=node.ident), rep)
    for edge in lat.edges:
        with pytest.raises(CertificationError):
            mt._certify_lattice(_without(lat, edge=edge), rep)


def test_lattice_runs_ensure_peaks_once(monkeypatch):
    calls = []
    ensure_peaks = Meataxe.ensure_peaks

    def counted(self):
        calls.append(1)
        ensure_peaks(self)

    monkeypatch.setattr(Meataxe, "ensure_peaks", counted)
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    lat = mt.lattice(pm.ctxP)
    assert len(lat.nodes) == 12 and len(calls) == 1


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
    assert contains(by_dim[20].sub, by_dim[1].sub)
    assert contains(by_dim[21].sub, by_dim[20].sub)


def test_lattice_u4_ell3_diamond():
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    lat = mt.lattice(pm.ctxP)
    assert len(lat.nodes) == 12
    assert sorted(n.dim for n in lat.nodes) == [0, 1, 10, 11, 15, 16, 24, 25, 29, 30, 39, 40]


def test_lattice_length_bound(monkeypatch):
    monkeypatch.setattr(meataxe, "LATTICE_LENGTH_BOUND", 3)
    pm = cached_pm("u", 5, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    with pytest.raises(BudgetExceededError, match="LATTICE_LENGTH_BOUND = 3"):
        mt.lattice(pm.ctxP)


def test_lattice_give_up_names_its_node_budget(monkeypatch):
    # the U4(2) diamond has 12 nodes
    monkeypatch.setattr(meataxe, "LATTICE_NODE_BUDGET", 5)
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    with pytest.raises(BudgetExceededError, match=r"node budget exceeded \(5 nodes\)"):
        mt.lattice(pm.ctxP)


def test_nullity1_give_up_names_its_word_budget(monkeypatch):
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    ten = next(i for i, c in enumerate(mt.classes) if c.dim == 10)
    mt.classes[ten].word = None
    # the first word of the stream has no eigenvalue of nullity 1 on it
    monkeypatch.setattr(meataxe, "WORD_BUDGET", 1)
    with pytest.raises(BudgetExceededError, match="dim-10 factor within 1 words"):
        mt.is_iso_rep(ten, mt.classes[ten].rep)


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
# Krylov annihilators, over the panel kernel


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
    assert kry.dtype == storage_dtype(ell)
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


# ---------------------------------------------------------------------------
# the lattice glued from a simple eigenspace summand of the adjacency operator


def _split_of(res):
    """The eigenspace summands `lattice` glues the analysis' lattice from."""
    return res.split.summands


def _eigenvalues(res):
    rep = res.report
    return rep["params"]["a"], -rep["roots"][0], -rep["roots"][1]


def _shape(lat):
    """Node keys with their factors, and edges as (key, key, class)."""
    key = {n.ident: n.sub.key() for n in lat.nodes}
    nodes = {n.sub.key(): n.factors for n in lat.nodes}
    assert len(nodes) == len(lat.nodes)
    return nodes, sorted((key[a], key[b], c) for a, b, c in lat.edges)


# the suite rows whose eigenvalue residues are not all equal
TWO_RESIDUE_ROWS = [
    ("o+", 3, 5), ("o+", 3, 7), ("o+", 3, 3),
    ("o-", 3, 5), ("o-", 3, 7), ("o-", 4, 3), ("o-", 4, 17),
    ("u", 4, 7), ("u", 4, 5), ("u", 4, 3),
    ("u", 5, 5), ("u", 5, 11), ("u", 5, 3),
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family,size,ell", TWO_RESIDUE_ROWS)
def test_glued_lattice_equals_the_walk_from_zero(analysis, family, size, ell, seed):
    res = analysis(family, size, ell, seed)
    assert res.split.summands is not None
    walked = res.meataxe.lattice(res.pm.ctxP, total=res.chop_total)
    assert _shape(res.lattice) == _shape(walked)
    res.meataxe._certify_lattice(res.lattice, res.pm.ctxP)


def _pencils(lat, split):
    """The diagonals of lat (nodes neither containing S nor inside D) by the
    ident of the node of D each covers."""
    inside = {n.ident for n in lat.nodes if contains(split.D, n.sub)}
    diagonal = {
        n.ident: n for n in lat.nodes if n.ident not in inside and not contains(n.sub, split.S)
    }
    out: dict[int, list] = {}
    for a, b, _c in lat.edges:
        if a in inside and b in diagonal:
            out.setdefault(a, []).append(diagonal[b])
    assert sum(map(len, out.values())) == len(diagonal)
    return out


def test_glued_u5_ell3_has_two_pencils_and_their_diagonal_edges(analysis):
    res = analysis("u", 5, 3)
    split = _split_of(res)
    assert split.S.dim == 1  # the trivial line
    assert sum(contains(n.sub, split.S) for n in res.lattice.nodes) == 8
    assert sum(contains(split.D, n.sub) for n in res.lattice.nodes) == 8
    pencils = _pencils(res.lattice, split)
    assert sorted(map(len, pencils.values())) == [3 - 1, 3 - 1]
    ids = {n.ident for pencil in pencils.values() for n in pencil}
    assert sum(a in ids and b in ids for a, b, _c in res.lattice.edges) == 3 - 1


def test_split_refuses_a_summand_that_is_not_simple_or_not_a_complement():
    # O+6(2), ell = 7: S = the eigenvalue-4 eigenspace X (dim 7), D = FF/Y/FF;
    # 28 points, so the all-ones line lies in the zero-sum submodule
    pm = cached_pm("o+", 6, 7)
    mt = Meataxe(7, pm.ctxP.ngens, seed=0)
    mt.chop(pm.ctxP)
    mt.ensure_peaks()
    split = eigen_split(pm.ctxP, pm._adj, (12, -2, 4)).summands
    assert (split.S.dim, split.D.dim) == (7, 21)
    mt._certify_split(pm.ctxP, split.S, split.D)
    with pytest.raises(CertificationError, match="not simple"):
        mt._certify_split(pm.ctxP, split.D, split.S)
    zero_sum, ones = zero_sum_and_ones(pm)
    with pytest.raises(CertificationError, match="meet"):
        mt._certify_split(pm.ctxP, ones, zero_sum)
    with pytest.raises(CertificationError, match="do not make 28"):
        mt._certify_split(pm.ctxP, split.S, ones)


# the rows whose summand S is not the trivial line
NONTRIVIAL_SUMMAND_ROWS = [("o+", 3, 7), ("u", 4, 5), ("o-", 4, 17), ("u", 5, 11)]


@pytest.mark.parametrize("family,size,ell", TWO_RESIDUE_ROWS)
def test_meet_d_is_the_rref_of_the_projection(analysis, family, size, ell):
    # on every walked node W, the interval above S, W & D read off W's RREF
    # equals the RREF of W (1 - e_S)
    res = analysis(family, size, ell)
    split = _split_of(res)
    assert (split.S.dim > 1) == ((family, size, ell) in NONTRIVIAL_SUMMAND_ROWS)
    walked = [n for n in res.lattice.nodes if contains(n.sub, split.S)]
    assert len(walked) >= 2  # S and the whole module at least
    for node in walked:
        U = split.meet_d(node.sub)
        basis, piv = linalg.rref(split.off_summand(node.sub.basis), ell)
        assert U.basis.dtype == basis.dtype == storage_dtype(ell)
        assert np.array_equal(U.basis, basis) and np.array_equal(U.pivots, piv)
    with pytest.raises(CertificationError, match="does not contain the summand"):
        split.meet_d(split.D)


@pytest.mark.parametrize("split", [True, False])
def test_walk_refuses_a_child_whose_lifted_rows_are_not_closed(analysis, monkeypatch, split):
    # U4(2), ell = 3, walked from S and from 0: a lift bent off the
    # quotient's line makes node + rows not closed
    res = analysis("u", 4, 3)
    lift = QuotCtx.lift_rows

    def bent(self, V):
        out = lift(self, V)
        out[:, self.nonpivots[-1]] = (out[:, self.nonpivots[-1]] + 1) % self.ell
        return out

    args = (res.pm.ctxP, res.chop_total, res.split if split else None)
    res.meataxe.lattice(*args)
    monkeypatch.setattr(QuotCtx, "lift_rows", bent)
    with pytest.raises(CertificationError, match="not closed under generator"):
        res.meataxe.lattice(*args)


def test_pencil_check_refuses_a_missing_or_wrong_diagonal(analysis):
    res = analysis("u", 5, 3)
    split = _split_of(res)
    mt, ctx = res.meataxe, res.pm.ctxP
    _summand, s = mt._certify_split(ctx, split.S, split.D)
    pencil = [n.sub for n in next(iter(_pencils(res.lattice, split).values()))]
    dim = pencil[0].dim
    meataxe._check_pencil(pencil, dim, s, 3)
    with pytest.raises(CertificationError, match="lacks a diagonal"):
        meataxe._check_pencil(pencil[:1], dim, s, 3)
    above = sum_sub(pencil[0], split.S)
    with pytest.raises(CertificationError, match="lacks a diagonal"):
        meataxe._check_pencil([pencil[0], above], dim, s, 3)
    with pytest.raises(CertificationError, match="lacks a diagonal"):
        meataxe._check_pencil([pencil[0], None], dim, s, 3)
    with pytest.raises(CertificationError, match="coincide"):
        meataxe._check_pencil([pencil[0], pencil[0]], dim, s, 3)


def test_glued_nodes_count_against_the_node_budget(analysis, monkeypatch):
    # U5(2), ell = 3: 8 walked nodes, their 8 images in D and 4 diagonals
    res = analysis("u", 5, 3)
    args = (res.pm.ctxP, res.chop_total, res.split)
    monkeypatch.setattr(meataxe, "LATTICE_NODE_BUDGET", 19)
    with pytest.raises(BudgetExceededError, match=r"node budget exceeded \(19 nodes\)"):
        res.meataxe.lattice(*args)
    monkeypatch.setattr(meataxe, "LATTICE_NODE_BUDGET", 20)
    assert len(res.meataxe.lattice(*args).nodes) == 20


class _Walked(Exception):
    pass


@pytest.mark.parametrize("family,size,ell", [("o+", 4, 3), ("o-", 3, 3), ("u", 6, 3), ("o+", 3, 5)])
def test_one_residue_rows_compute_no_eigenspace(analysis, monkeypatch, family, size, ell):
    # one residue: the whole module is the one generalised eigenspace, so the
    # split forms no q(A) and has no summands, and the lattice is walked from 0
    res = analysis(family, size, ell)
    v = res.pm.ctxP.dim
    squares, bottoms = [], []
    matmul = linalg.matmul

    def counted(A, B, ell):
        squares.append(A.shape == B.shape == (v, v))
        return matmul(A, B, ell)

    def stop(self, ambient, nodes, bottom, *args):
        bottoms.append(bottom.dim)
        raise _Walked

    monkeypatch.setattr(linalg, "matmul", counted)
    split = eigen_split(res.pm.ctxP, res.pm._adj, _eigenvalues(res))
    monkeypatch.setattr(Meataxe, "_walk", stop)
    with pytest.raises(_Walked):
        res.meataxe.lattice(res.pm.ctxP, res.chop_total, split)
    # O+6(2), ell = 5 has three residues and is the control: each eigenspace
    # is the row space of a product of two shifts of A, and the walk starts
    # at the trivial summand
    three = family == "o+" and size == 3
    assert (split.summands is None) != three
    assert sum(squares) == (3 if three else 0)
    assert bottoms == [1 if three else 0]


def _skipped_peak_kernels(monkeypatch):
    """Patch `socle_lines` to compute, for each class absent from the factors
    it is given, the left kernel of the class's peak word on the quotient
    directly.  Returns the list of their dimensions, and the list of left
    kernels `socle_lines` itself computes."""
    skipped, computed = [], []
    socle_lines, left = Meataxe.socle_lines, meataxe.left_kernel

    def checked(self, action, factors=None):
        if factors is not None:
            for idx, cls in enumerate(self.classes):
                if not factors[idx]:
                    word, lam = cls.word
                    skipped.append(left(_shifted(word, action, lam), self.ell).shape[0])
        monkeypatch.setattr(meataxe, "left_kernel", counted)
        try:
            return socle_lines(self, action, factors)
        finally:
            monkeypatch.setattr(meataxe, "left_kernel", left)

    def counted(M, ell):
        computed.append(M.shape[0])
        return left(M, ell)

    monkeypatch.setattr(Meataxe, "socle_lines", checked)
    return skipped, computed


@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_the_peak_kernels_the_walk_skips_are_zero(analysis, monkeypatch, family, size, ell):
    # a class absent from the factors of M/N has a peak word invertible on
    # M/N: at every walked node, its kernel computed directly is 0
    res = analysis(family, size, ell)
    skipped, _computed = _skipped_peak_kernels(monkeypatch)
    lat = res.meataxe.lattice(res.pm.ctxP, res.chop_total, res.split)
    assert _shape(lat) == _shape(res.lattice)
    assert skipped and not any(skipped)


def test_u4_ell3_walk_skips_nine_of_twenty_four_peak_kernels(monkeypatch):
    # 4 classes; the walk over [S, M] has 5 nodes below M, and the split's
    # check of S takes the 4 kernels on S itself, where nothing is skipped
    skipped, computed = _skipped_peak_kernels(monkeypatch)
    res = run_analysis("u", 4, 3)
    assert len(res.meataxe.classes) == 4
    assert (len(computed), len(skipped)) == (15, 9)


# ---------------------------------------------------------------------------
# the chop of the pieces along the adjacency operator


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_chop_of_the_pieces_equals_the_whole_chop(analysis, family, size, ell, seed):
    res = analysis(family, size, ell, seed)
    mt, total = res.meataxe, res.chop_total
    whole = Meataxe(ell, res.pm.ctxP.ngens, seed=seed)
    whole_total = whole.chop(res.pm.ctxP)
    assert chop_dims(mt, total) == chop_dims(whole, whole_total)
    partners = set()
    for idx, mult in total.items():
        (partner,) = [j for j in whole_total if whole.is_iso_rep(j, mt.classes[idx].rep)]
        assert whole_total[partner] == mult
        partners.add(partner)
    assert len(partners) == len(total)


def test_u6_ell3_pieces_are_the_kernel_quotient_and_the_image(analysis):
    # one residue, B^2 = 0: Ker B / Im B once and Im B twice
    res = analysis("u", 6, 3)
    split = eigen_split(res.pm.ctxP, res.pm._adj, _eigenvalues(res))
    assert split.summands is None
    assert sorted((piece.dim, mult) for piece, mult in split.pieces) == [(211, 2), (250, 1)]


def test_split_refuses_an_operator_that_does_not_commute():
    pm = cached_pm("o+", 6, 5)
    dense = DenseRep(5, [pm.ctxP.gen_matrix(i) for i in range(pm.ctxP.ngens)])
    swapped = pm._adj.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    for action in (pm.ctxP, dense):
        eigen_split(action, pm._adj, (12, -2, 4))
        with pytest.raises(CertificationError, match="does not commute"):
            eigen_split(action, swapped, (12, -2, 4))


def test_split_refuses_eigenvalues_that_are_not_the_operators():
    # O+6(2), ell = 7: 5 is congruent to 12 and -2, but 4 is left out, and
    # A - 5 is invertible on the eigenvalue-4 eigenspace
    pm = cached_pm("o+", 6, 7)
    with pytest.raises(CertificationError, match="not the operator's"):
        eigen_split(pm.ctxP, pm._adj, (12, -2, 5))


@pytest.mark.parametrize("blocks,pieces", [((3,), [(1, 3)]), ((3, 1), [(1, 1), (1, 3)])])
def test_kernel_chain_of_a_jordan_operator_gives_the_whole_chop(blocks, pieces):
    # B^2 != 0: the generators are the identity on F_3^n and A is 2 plus
    # nilpotent Jordan blocks; with blocks 3 and 1, Ker(B | MB) is smaller
    # than Ker B and is read as an intersection
    ell, n = 3, sum(blocks)
    A = 2 * np.eye(n, dtype=np.int64)
    start = 0
    for size in blocks:
        for i in range(start, start + size - 1):
            A[i, i + 1] = 1
        start += size
    rep = DenseRep(ell, [np.eye(n, dtype=np.int64)] * 2)
    split = eigen_split(rep, A, (2, 2, 2))
    assert split.summands is None
    assert sorted((piece.dim, mult) for piece, mult in split.pieces) == pieces
    mt, whole = Meataxe(ell, 2, seed=0), Meataxe(ell, 2, seed=0)
    assert chop_dims(mt, mt.chop(rep, split)) == chop_dims(whole, whole.chop(rep)) == [(1, n)]
