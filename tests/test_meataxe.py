import sys
from collections import Counter

import numpy as np
import pytest

from rank3mod import linalg, meataxe
from rank3mod.analyze import run_analysis
from rank3mod.cli import SUITE_INSTANCES
from rank3mod.errors import BudgetExceededError, CertificationError
from rank3mod.fields import storage_dtype
from rank3mod.meataxe import (
    FactorClass,
    Lattice,
    Meataxe,
    _shifted,
    krylov_annihilator,
    left_kernel,
    transpose_action,
)
from rank3mod.modules import (
    ModCtx,
    QuotCtx,
    Section,
    Submodule,
    eigen_split,
    quot_rep,
    spin,
    sub_rep,
    submodule_from_rows,
    sum_sub,
    zero_submodule,
)

from conftest import (
    cached_analysis,
    cached_pm,
    conjugated_section,
    contains,
    graph_submodule,
    perm_matrix,
    quotient_section,
    rotated_section,
    whole_section,
    zero_sum_and_ones,
)


def chop_dims(mt, total):
    return sorted((mt.classes[i].dim, m) for i, m in total.items())


def walked_lattice(mt, ctx):
    """The lattice of the permutation module ctx walked from 0, after a chop
    of it with no split."""
    return mt.lattice(ctx, mt.chop(whole_section(ctx)))


def cyclic_regular():
    """F_3 C_3, the regular module of the cyclic group of order 3 over F_3:
    uniserial, with three trivial layers."""
    return ModCtx(3, [np.roll(np.arange(3), -1)])


def test_chop_oplus3_ell3():
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    total = mt.chop(whole_section(pm.ctxP))
    assert chop_dims(mt, total) == [(1, 1), (7, 2), (13, 1)]
    # the dim-7 factor appears twice but as ONE isomorphism class
    sevens = [i for i in total if mt.classes[i].dim == 7]
    assert len(sevens) == 1 and total[sevens[0]] == 2


def test_chop_oplus3_ell5_semisimple():
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    total = mt.chop(whole_section(pm.ctxP))
    assert chop_dims(mt, total) == [(1, 1), (7, 1), (20, 1)]


def test_chop_zero_module():
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    zero = sub_rep(zero_submodule(pm.ctxP))
    assert zero.dim == 0 and mt.chop(zero) == Counter()


def test_trivial_vs_sign_classes_not_isomorphic():
    pm = cached_pm("o-", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    total = mt.chop(whole_section(pm.ctxP))
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
    total = mt.chop(whole_section(pm.ctxP))
    seven = next(i for i in total if mt.classes[i].dim == 7)
    rep = mt.classes[seven].rep
    conj = _conjugated(rep, 3, np.random.default_rng(42))
    assert not np.array_equal(conj.gen_matrix(0), rep.gen_matrix(0))
    assert mt.is_iso_rep(seven, conj)


def test_register_maps_an_isomorphic_copy_to_its_class():
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(whole_section(pm.ctxP))
    count = len(mt.classes)
    rng = np.random.default_rng(7)
    for idx in range(count):
        # nullity is the same on isomorphic modules, so the class word serves
        assert mt.register(_conjugated(mt.classes[idx].rep, 3, rng), mt.classes[idx].word) == idx
    assert len(mt.classes) == count
    # the generators of the dim-7 class rotated by one generate the same
    # matrix algebra, so the rep is simple, but it is not isomorphic: the
    # chop certifies it and registers a new class
    seven = next(i for i, c in enumerate(mt.classes) if c.dim == 7)
    rep = mt.classes[seven].rep
    rot = rotated_section(rep)
    assert _hom_dim(rep, rot, 3) == 0
    assert mt.chop(rot) == Counter({count: 1})
    assert len(mt.classes) == count + 1 and mt.classes[count].dim == 7


def _conjugated(rep, ell, rng):
    """rep written in a random basis: C rep(g) C^-1 for a random invertible C."""
    d = rep.dim
    while True:
        C = rng.integers(0, ell, size=(d, d)).astype(np.int64)
        if linalg.rank(C, ell) == d:
            break
    return conjugated_section(rep, C)


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
    mt.chop(whole_section(pm.ctxP))
    rng = np.random.default_rng(dim)
    spin_decided = 0
    for idx, cls in enumerate(mt.classes):
        if cls.dim > 14:
            continue
        rep, d = cls.rep, cls.dim
        conj = _conjugated(rep, ell, rng)
        rot = rotated_section(rep)
        assert _hom_dim(rep, conj, ell) == 1
        assert mt.is_iso_rep(idx, conj)
        iso_rot = mt.is_iso_rep(idx, rot)
        assert iso_rot == (_hom_dim(rep, rot, ell) > 0)
        if d > 1:
            assert not iso_rot
            word, lam = mt.classes[idx].word
            spin_decided += left_kernel(_shifted(word, rot, lam), ell).shape[0] == 1
    # at least one negative answer came from the spin, not an early exit
    assert spin_decided >= 1


def test_abs_irred_certificates():
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    total = mt.chop(whole_section(pm.ctxP))
    mt.ensure_peaks()
    for i in total:
        word, lam = mt.classes[i].word
        assert mt.classes[i].nullity_of(word, lam, 3) == 1


@pytest.mark.parametrize("family,dim,ell", [("o+", 6, 3), ("o-", 6, 3), ("o+", 6, 5), ("u", 4, 3)])
def test_every_class_is_born_with_a_nullity1_word(family, dim, ell):
    # right after the chop, before ensure_peaks: dim-1 classes included
    pm = cached_pm(family, dim, ell)
    mt = Meataxe(ell, pm.ctxP.ngens, seed=0)
    mt.chop(whole_section(pm.ctxP))
    assert any(cls.dim == 1 for cls in mt.classes)
    for cls in mt.classes:
        word, lam = cls.word
        assert cls.nullity_of(word, lam, ell) == 1


def test_chop_refuses_a_simple_module_with_a_larger_endomorphism_ring():
    # g a 4-cycle: on Ker(g^2 + 1) in F_3^4, g^2 = -1, so F_3[g] = F_9 acts
    # on F_3^2, simple with End = F_9, and no word a + b g has an
    # eigenvalue of nullity 1 in F_3
    ctx = ModCtx(3, [np.array([1, 2, 3, 0])])
    g = perm_matrix(ctx.perms[0], 3)
    g2_plus_1 = linalg.matmul(g, g, 3) + np.eye(4, dtype=g.dtype)
    rep = sub_rep(submodule_from_rows(ctx, left_kernel(g2_plus_1, 3)))
    assert rep.dim == 2
    mt = Meataxe(3, 1, seed=0)
    with pytest.raises(BudgetExceededError, match=r"dim-2 module or has an eigenvalue in F_3 of nullity 1"):
        mt.chop(rep)
    assert mt.classes == []


def test_chop_word_becomes_the_class_word_and_a_separating_one_is_kept(monkeypatch):
    # the Norton certificate of the chop hands its word to register;
    # ensure_peaks keeps each word that separates and searches for no other
    norton, searched = [], []
    register, search = Meataxe.register, Meataxe._nullity1_search

    def noted(self, rep, word):
        idx = register(self, rep, word)
        norton.append((idx, word))
        return idx

    def counted(self, idx):
        searched.append(idx)
        return search(self, idx)

    monkeypatch.setattr(Meataxe, "register", noted)
    monkeypatch.setattr(Meataxe, "_nullity1_search", counted)
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(whole_section(pm.ctxP))
    first = {}
    for idx, word in norton:
        first.setdefault(idx, word)
    assert first and all(mt.classes[idx].word == word for idx, word in first.items())
    kept = {i: c.word for i, c in enumerate(mt.classes) if mt._peak_ok(*c.word, i)}
    assert kept
    searched.clear()
    mt.ensure_peaks()
    assert set(searched).isdisjoint(kept)
    assert all(mt.classes[i].word == word for i, word in kept.items())
    for i, cls in enumerate(mt.classes):
        assert cls.nullity_of(*cls.word, 3) == 1 and mt._peak_ok(*cls.word, i)


def test_socle_of_augmentation_oplus3_ell3():
    # |P| = 28 is prime to 3, so F_3 P is the zero-sum submodule, uniserial
    # X - Z - X, plus the trivial line FF
    pm = cached_pm("o+", 6, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    layers = mt.socle_series(pm.ctxP, walked_lattice(mt, pm.ctxP))
    dims = [sorted((mt.classes[i].dim, t) for i, t in lay.items()) for lay in layers]
    assert dims == [[(1, 1), (7, 1)], [(13, 1)], [(7, 1)]]
    # head-socle symmetry of the self-dual zero-sum module with simple
    # socle: the top layer is the same isomorphism class as the socle's X
    (top_cls,) = layers[-1]
    (soc_cls,) = [i for i in layers[0] if mt.classes[i].dim == 7]
    assert top_cls == soc_cls
    assert mt.is_iso_rep(top_cls, mt.classes[soc_cls].rep)


def test_socle_series_u5_ell3_augmentation():
    # spec'd example: the zero-sum submodule X - Z - (FF + W) - Z - X, and
    # |P| = 176 is prime to 3, so F_3 P is that plus the trivial line FF
    pm = cached_pm("u", 5, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    layers = mt.socle_series(pm.ctxP, walked_lattice(mt, pm.ctxP))
    dims = [sorted((mt.classes[i].dim, t) for i, t in lay.items()) for lay in layers]
    assert dims == [[(1, 1), (55, 1)], [(10, 1)], [(1, 1), (44, 1)], [(10, 1)], [(55, 1)]]


def test_socle_of_semisimple_is_everything():
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    layers = mt.socle_series(pm.ctxP, walked_lattice(mt, pm.ctxP))
    assert len(layers) == 1
    assert sum(mt.classes[i].dim * t for i, t in layers[0].items()) == 28


def _without(lat, ident=None, edge=None):
    """A copy of lat without one node (and its edges) or without one edge."""
    nodes = [n for n in lat.nodes if n.ident != ident]
    edges = [e for e in lat.edges if e != edge and ident not in e[:2]]
    return Lattice(nodes, edges)


def test_socle_series_refuses_a_lattice_with_a_node_or_an_edge_removed():
    # on the uniserial F_3 C_3 every node and every edge is on the socle walk
    ctx = cyclic_regular()
    mt = Meataxe(3, ctx.ngens, seed=0)
    lat = walked_lattice(mt, ctx)
    assert len(mt.socle_series(ctx, lat)) == 3
    assert len(lat.nodes) == 4 and len(lat.edges) == 3
    for node in lat.nodes:
        with pytest.raises(CertificationError):
            mt.socle_series(ctx, _without(lat, ident=node.ident))
    for edge in lat.edges:
        with pytest.raises(CertificationError):
            mt.socle_series(ctx, _without(lat, edge=edge))
    # on the U4(2) diamond the socle of the whole module is one node; without
    # it the sum of the zero node's covers is no node
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    lat = walked_lattice(mt, pm.ctxP)
    (first, *_rest) = mt.socle_series(pm.ctxP, lat)
    soc_dim = sum(mt.classes[i].dim * t for i, t in first.items())
    (soc,) = [n for n in lat.nodes if n.dim == soc_dim and n.factors == first]
    with pytest.raises(CertificationError):
        mt.socle_series(pm.ctxP, _without(lat, ident=soc.ident))


def test_certify_lattice_refuses_a_lattice_with_a_node_or_an_edge_removed():
    # O+6(2), ell = 5: the boolean lattice of three simple summands
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    lat = walked_lattice(mt, pm.ctxP)
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
    # the uniserial F_3 C_3, where a missing middle node or edge leaves two
    # nested nodes looking incomparable
    ctx = cyclic_regular()
    mt = Meataxe(3, ctx.ngens, seed=0)
    lat = walked_lattice(mt, ctx)
    assert sorted(n.dim for n in lat.nodes) == [0, 1, 2, 3]
    mt._certify_lattice(lat, ctx)
    for node in lat.nodes:
        if 0 < node.dim < ctx.dim:
            with pytest.raises(CertificationError):
                mt._certify_lattice(_without(lat, ident=node.ident), ctx)
    for edge in lat.edges:
        with pytest.raises(CertificationError):
            mt._certify_lattice(_without(lat, edge=edge), ctx)


def test_lattice_runs_ensure_peaks_once(monkeypatch):
    calls = []
    ensure_peaks = Meataxe.ensure_peaks

    def counted(self):
        calls.append(1)
        ensure_peaks(self)

    monkeypatch.setattr(Meataxe, "ensure_peaks", counted)
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    lat = walked_lattice(mt, pm.ctxP)
    assert len(lat.nodes) == 12 and len(calls) == 1


def test_lattice_boolean_for_multiplicity_free_semisimple():
    pm = cached_pm("o+", 6, 5)
    mt = Meataxe(5, pm.ctxP.ngens, seed=0)
    lat = walked_lattice(mt, pm.ctxP)
    assert len(lat.nodes) == 8
    assert len(lat.edges) == 12
    assert sorted(n.dim for n in lat.nodes) == [0, 1, 7, 8, 20, 21, 27, 28]


def test_lattice_uniserial_plus_simple_oplus3_ell7():
    pm = cached_pm("o+", 6, 7)
    mt = Meataxe(7, pm.ctxP.ngens, seed=0)
    lat = walked_lattice(mt, pm.ctxP)
    assert len(lat.nodes) == 8
    assert sorted(n.dim for n in lat.nodes) == [0, 1, 7, 8, 20, 21, 27, 28]
    # containment chain through dims 1 < 20 < 21 exists (T < U' < U)
    by_dim = {n.dim: n for n in lat.nodes}
    assert contains(by_dim[20].sub, by_dim[1].sub)
    assert contains(by_dim[21].sub, by_dim[20].sub)


def test_lattice_u4_ell3_diamond():
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    lat = walked_lattice(mt, pm.ctxP)
    assert len(lat.nodes) == 12
    assert sorted(n.dim for n in lat.nodes) == [0, 1, 10, 11, 15, 16, 24, 25, 29, 30, 39, 40]


def test_lattice_length_bound(monkeypatch):
    monkeypatch.setattr(meataxe, "LATTICE_LENGTH_BOUND", 3)
    pm = cached_pm("u", 5, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    with pytest.raises(BudgetExceededError, match="LATTICE_LENGTH_BOUND = 3"):
        walked_lattice(mt, pm.ctxP)


def test_lattice_give_up_names_its_node_budget(monkeypatch):
    # the U4(2) diamond has 12 nodes
    monkeypatch.setattr(meataxe, "LATTICE_NODE_BUDGET", 5)
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    with pytest.raises(BudgetExceededError, match=r"node budget exceeded \(5 nodes\)"):
        walked_lattice(mt, pm.ctxP)


def test_nullity1_give_up_names_its_word_budget():
    # a second copy of the dim-5 class: no word is invertible on one copy
    # and of nullity 1 on the other, so ensure_peaks searches for both
    # copies in vain and names them and its budget
    pm = cached_pm("u", 4, 3)
    mt = Meataxe(3, pm.ctxP.ngens, seed=0)
    mt.chop(whole_section(pm.ctxP))
    five = next(c for c in mt.classes if c.dim == 5)
    mt.classes.append(FactorClass(five.rep, five.dim, five.word))
    budget = meataxe.WORD_BUDGET
    with pytest.raises(BudgetExceededError, match=rf"dims \[5, 5\] within {budget} words each$"):
        mt.ensure_peaks()


def test_determinism_same_seed_same_lattice():
    def run():
        pm = cached_pm("o-", 6, 3)
        mt = Meataxe(3, pm.ctxP.ngens, seed=7)
        lat = walked_lattice(mt, pm.ctxP)
        return [(n.dim, n.sub.key()) for n in lat.nodes], [
            (a, b) for a, b, _ in lat.edges
        ]

    assert run() == run()


def test_transpose_action_roundtrip():
    pm = cached_pm("o+", 6, 3)
    tr = transpose_action(whole_section(pm.ctxP))
    v = np.arange(28, dtype=np.int64) % 3
    for gi in range(pm.ctxP.ngens):
        a = tr.act_rows(v[None, :], gi)[0]
        M = perm_matrix(pm.ctxP.perms[gi], 3).T
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
    mt.chop(whole_section(pm.ctxP))
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


@pytest.mark.parametrize("family,size,ell", TWO_RESIDUE_ROWS)
def test_split_names_the_summand_and_its_peak_kernel_line(analysis, family, size, ell):
    # s is a non-zero vector of S with leading entry 1, killed by the peak
    # word of S's class formed on the permutation module itself
    res = analysis(family, size, ell)
    split = _split_of(res)
    mt, ctx = res.meataxe, res.pm.ctxP
    summand, s = mt._certify_split(ctx, split.S, split.D)
    assert mt.classes[summand].dim == split.S.dim and res.chop_total[summand] >= 1
    assert s.any() and s[np.flatnonzero(s)[0]] == 1
    assert linalg.in_rowspace(s, split.S.basis, split.S.pivots, ell)
    word, lam = mt.classes[summand].word
    assert not linalg.matmul(s[None], _shifted(word, whole_section(ctx), lam), ell).any()


def test_split_names_the_trivial_class_among_two_of_dimension_one(analysis):
    # O-8(2), ell = 3: classes 1 and 3 both have dimension 1, and only the
    # isomorphism test tells that S, the all-ones line, is class 3
    res = analysis("o-", 4, 3)
    mt, split = res.meataxe, _split_of(res)
    assert [i for i, cls in enumerate(mt.classes) if cls.dim == 1] == [1, 3]
    summand, s = mt._certify_split(res.pm.ctxP, split.S, split.D)
    assert summand == 3 and mt.classes[3].trivial and not mt.classes[1].trivial
    assert np.array_equal(s, np.ones(res.pm.ctxP.dim))


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


def _glue_pencils(mt, ctx, total, split, monkeypatch):
    """The lattice glued from `split`, and each pencil `_glue` checks with
    its walked cover U < U' of D, its seed lift x and s: the walk's returned
    seeds give the covers in the order `_glue` spins them."""
    walked, checked = [], []
    walk, check = Meataxe._walk, meataxe._check_pencil

    def recorded_walk(self, ambient, nodes, *args):
        seeds = walk(self, ambient, nodes, *args)
        walked.append((nodes, seeds))
        return seeds

    def recorded_check(pencil, dim, s, ell):
        checked.append((pencil, s))
        check(pencil, dim, s, ell)

    monkeypatch.setattr(Meataxe, "_walk", recorded_walk)
    monkeypatch.setattr(meataxe, "_check_pencil", recorded_check)
    lat = mt.lattice(ctx, total, split)
    monkeypatch.undo()
    ((nodes, seeds),) = walked
    assert len(seeds) == len(checked)
    D = split.summands
    return lat, [
        (D.meet_d(nodes.nodes[a].sub), D.meet_d(nodes.nodes[b].sub), D.off_summand(lift)[0], pencil, s)
        for ((a, b), lift), (pencil, s) in zip(seeds.items(), checked)
    ]


def _check_glued(ctx, pencils, rng) -> int:
    """Each diagonal U + <x + t s>, spun in M / U and joined to U, has the
    basis and pivots of the spin of x + t s in M, capped at dim U', summed
    with U.  A random vector's spin in M / U, capped at dim U' - dim U, is
    None exactly when U + its spin in M passes dim U', and the pencil with
    it is refused.  Returns how many of those spins were None."""
    ell, refused = ctx.ell, 0
    for U, U1, x, pencil, s in pencils:
        assert len(pencil) == ell - 1
        for t, W in enumerate(pencil, start=1):
            v = (x.astype(np.int64) + t * s.astype(np.int64)) % ell
            ref = sum_sub(U, spin(ctx, [v], cap_dim=U1.dim))
            assert W.basis.dtype == ref.basis.dtype
            assert np.array_equal(W.basis, ref.basis) and np.array_equal(W.pivots, ref.pivots)
        meataxe._check_pencil(pencil, U1.dim, s, ell)
        quot = QuotCtx(ctx, U)
        off = rng.integers(0, ell, size=ctx.dim)
        spun = spin(quot, quot.project_rows(off[None]), cap_dim=U1.dim - U.dim)
        assert (spun is None) == (sum_sub(U, spin(ctx, [off])).dim > U1.dim)
        if spun is None:
            refused += 1
            with pytest.raises(CertificationError, match="lacks a diagonal"):
                meataxe._check_pencil([spun, *pencil[1:]], U1.dim, s, ell)
    return refused


@pytest.mark.parametrize(
    "family,size,ell,seed", [(*row, 0) for row in TWO_RESIDUE_ROWS] + [("o+", 3, 131, 1)]
)
def test_glued_diagonals_are_the_sums_with_the_spins_in_m(analysis, monkeypatch, family, size, ell, seed):
    # every row with summands; only U5(2), ell = 3 has pencils, and its
    # random vectors spin past the covers, so the refusal is shown there
    res = analysis(family, size, ell, seed)
    lat, pencils = _glue_pencils(res.meataxe, res.pm.ctxP, res.chop_total, res.split, monkeypatch)
    assert _shape(lat) == _shape(res.lattice)
    assert len(pencils) == len(_pencils(res.lattice, _split_of(res)))
    refused = _check_glued(res.pm.ctxP, pencils, np.random.default_rng(ell))
    assert (len(pencils), refused) == ((2, 2) if (family, size, ell) == ("u", 5, 3) else (0, 0))


def test_glued_diagonals_of_the_trivial_plane_at_ell_131(monkeypatch):
    # F_131^2 with two trivial generators, split by diag(1, 0): S and D are
    # trivial lines, and the one pencil, over 0 < D, has all 130 other lines
    ell = 131
    ctx = ModCtx(ell, [np.arange(2)] * 2)
    split = eigen_split(ctx, np.diag([1, 0]), (1, 0, 0))
    mt = Meataxe(ell, 2, seed=1)
    lat, pencils = _glue_pencils(mt, ctx, mt.chop(ctx, split), split, monkeypatch)
    assert len(lat.nodes) == ell + 3 and len(pencils) == 1
    assert _check_glued(ctx, pencils, np.random.default_rng(ell)) == 0


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


def _counted_peak_kernels(monkeypatch):
    """Patch `socle_lines` to compute, for each class absent from the factors
    it is given, the left kernel of the class's peak word on the quotient
    directly, and count the kernels the lattice computes.  Returns the list
    of the skipped kernels' dimensions, the list of node kernels read off
    the Fitting kernels (`_node_kernel`), and the list of Fitting kernels
    (`generalised_kernel`)."""
    skipped, computed, fitting = [], [], []
    socle_lines, node_kernel = Meataxe.socle_lines, meataxe._node_kernel
    generalised = meataxe.generalised_kernel

    def checked(self, quot, kernels, factors, joins):
        section = quotient_section(quot.sub)
        for idx, cls in enumerate(self.classes):
            if not factors[idx]:
                word, lam = cls.word
                skipped.append(left_kernel(_shifted(word, section, lam), self.ell).shape[0])
        return socle_lines(self, quot, kernels, factors, joins)

    def counted_node(quot, K, Z, ell):
        computed.append(quot.dim)
        return node_kernel(quot, K, Z, ell)

    def counted_fitting(word, lam, action, e):
        K, Z = generalised(word, lam, action, e)
        fitting.append((action.dim, K.shape[0]))
        return K, Z

    monkeypatch.setattr(Meataxe, "socle_lines", checked)
    monkeypatch.setattr(meataxe, "_node_kernel", counted_node)
    monkeypatch.setattr(meataxe, "generalised_kernel", counted_fitting)
    return skipped, computed, fitting


@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_the_peak_kernels_the_walk_skips_are_zero(analysis, monkeypatch, family, size, ell):
    # a class absent from the factors of M/N has a peak word invertible on
    # M/N: at every walked node, its kernel computed directly is 0
    res = analysis(family, size, ell)
    skipped, _computed, _fitting = _counted_peak_kernels(monkeypatch)
    lat = res.meataxe.lattice(res.pm.ctxP, res.chop_total, res.split)
    assert _shape(lat) == _shape(res.lattice)
    assert skipped and not any(skipped)


def test_u4_ell3_walk_skips_nine_of_twenty_peak_kernels(monkeypatch):
    # 4 classes; the walk over [S, M] has 5 nodes below M, so 20 peak
    # kernels.  The split names the class of the trivial line S by the
    # isomorphism test and takes no kernel on S, and the walk takes a
    # Fitting kernel on M for each of the 3 classes above S (S's class
    # occurs once).  Each node's kernels are read off those: 11 are
    # computed and 9 skipped by the factors of M / N
    skipped, computed, fitting = _counted_peak_kernels(monkeypatch)
    res = run_analysis("u", 4, 3)
    assert len(res.meataxe.classes) == 4
    assert (len(computed), len(skipped)) == (11, 9)
    on_s = [k for dim, k in fitting if dim == 1]
    on_m = [k for dim, k in fitting if dim == res.pm.ctxP.dim]
    assert on_s == [] and len(on_m) == 3 and all(on_m)


def _check_node_kernels(res):
    """At every node N of the lattice, the kernel of each class's peak word on
    M / N read off the Fitting kernels on M is the left kernel computed
    directly on the quotient."""
    mt, ctx, ell = res.meataxe, res.pm.ctxP, res.meataxe.ell
    kernels = mt.fitting_kernels(ctx, res.chop_total, classes=res.chop_total)
    assert sorted(kernels) == sorted(res.chop_total)
    for node in res.lattice.nodes:
        if node.dim == ctx.dim:
            continue
        quot, section = QuotCtx(ctx, node.sub), quotient_section(node.sub)
        for idx, (K, Z) in kernels.items():
            word, lam = mt.classes[idx].word
            direct = left_kernel(_shifted(word, section, lam), ell)
            assert np.array_equal(meataxe._node_kernel(quot, K, Z, ell), direct)
    return kernels


@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_node_peak_kernels_are_the_left_kernels_on_the_quotient(analysis, family, size, ell):
    _check_node_kernels(analysis(family, size, ell))


@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_walk_children_are_merged_not_eliminated(analysis, monkeypatch, family, size, ell):
    # each child of the walk, and each glued diagonal, is its node plus the
    # lift of an RREF submodule of the node's quotient, joined with no
    # elimination (`QuotCtx.extend`): the same basis and pivots as the sum
    # with the lift reduced and eliminated afresh, and as the RREF of all
    # the rows
    res = analysis(family, size, ell)
    merged = []
    merge_rref = linalg.merge_rref

    def recorded(A, pa, B, pb, ell):
        out = merge_rref(A, pa, B, pb, ell)
        if sys._getframe(1).f_code.co_name == "extend":
            merged.append((A, pa, B, out))
        return out

    monkeypatch.setattr(linalg, "merge_rref", recorded)
    lat = res.meataxe.lattice(res.pm.ctxP, res.chop_total, res.split)
    assert _shape(lat) == _shape(res.lattice)
    assert merged
    for A, pa, B, (basis, piv) in merged:
        ref, ref_piv = linalg.rowspace_sum(A, pa, B, ell)
        assert np.array_equal(basis, ref) and np.array_equal(piv, ref_piv)
        full, full_piv = linalg.rref(np.vstack([A, B]), ell)
        assert np.array_equal(basis, full) and np.array_equal(piv, full_piv)
        assert basis.dtype == storage_dtype(ell) and piv.dtype == ref_piv.dtype


def test_fitting_kernels_of_generalised_nullity_above_one(analysis):
    # U4(2), ell = 3, seed 3: the dim-10 class (twice in M) has a peak word
    # of generalised nullity 2, and the dim-14 class one of nullity 3
    res = analysis("u", 4, 3, 3)
    mt, total = res.meataxe, res.chop_total
    chains = {mt.classes[i].dim: (mt.classes[i].kernel_chain(3), m) for i, m in total.items()}
    assert chains[10] == ((2, 2), 2) and chains[14] == ((3, 3), 1)
    kernels = _check_node_kernels(res)
    dims = {mt.classes[i].dim: K.shape[0] for i, (K, _Z) in kernels.items()}
    assert dims[10] == 4 and dims[14] == 3
    assert res.report["verdict"]["match"]


def test_fitting_kernel_of_the_wrong_dimension_is_refused(analysis, monkeypatch):
    res = analysis("u", 4, 3, 3)
    mt, ctx, total = res.meataxe, res.pm.ctxP, res.chop_total
    for idx in total:
        with pytest.raises(CertificationError, match="Fitting kernel"):
            mt.lattice(ctx, total + Counter({idx: 1}), res.split)
    generalised = meataxe.generalised_kernel

    def short(*args):
        K, Z = generalised(*args)
        return K[1:], Z[1:]

    monkeypatch.setattr(meataxe, "generalised_kernel", short)
    with pytest.raises(CertificationError, match="Fitting kernel"):
        mt.lattice(ctx, total, res.split)


def _dense_power(A, e, ell):
    """A^e by repeated squaring of the dense matrix A."""
    power, square = None, A
    while e:
        if e & 1:
            power = square if power is None else linalg.matmul(power, square, ell)
        e >>= 1
        if e:
            square = linalg.matmul(square, square, ell)
    return power


@pytest.mark.parametrize(
    "family,size,ell,seed", [("o+", 3, 3, 0), ("o-", 3, 5, 0), ("u", 4, 7, 0), ("u", 5, 3, 0), ("u", 4, 3, 3)]
)
def test_generalised_kernel_is_the_left_kernel_of_the_dense_power(analysis, family, size, ell, seed):
    # the row gathers on M against the dense (theta - lam)^e on M as a
    # section of itself, at each class's peak word, for e = 1 and the
    # exponent m j of `fitting_kernels`; at U4(2), ell = 3, seed 3 the
    # generalised nullity nu exceeds 1
    res = analysis(family, size, ell, seed)
    mt, ctx = res.meataxe, res.pm.ctxP
    whole, nus = whole_section(ctx), []
    for idx, mult in res.chop_total.items():
        word, lam = mt.classes[idx].word
        j, nu = mt.classes[idx].kernel_chain(ell)
        nus.append(nu)
        A = _shifted(word, whole, lam)
        for e in sorted({1, mult * j}):
            K, Z = meataxe.generalised_kernel(word, lam, ctx, e)
            ref = left_kernel(_dense_power(A, e, ell), ell)
            assert np.array_equal(K, ref) and K.dtype == ref.dtype
            assert np.array_equal(Z, linalg.matmul(ref, A, ell))
    assert seed != 3 or max(nus) > 1


# ---------------------------------------------------------------------------
# the chop of the pieces along the adjacency operator


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_chop_of_the_pieces_equals_the_whole_chop(analysis, family, size, ell, seed):
    res = analysis(family, size, ell, seed)
    mt, total = res.meataxe, res.chop_total
    whole = Meataxe(ell, res.pm.ctxP.ngens, seed=seed)
    whole_total = whole.chop(whole_section(res.pm.ctxP))
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
    swapped = pm._adj.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    eigen_split(pm.ctxP, pm._adj, (12, -2, 4))
    with pytest.raises(CertificationError, match="does not commute"):
        eigen_split(pm.ctxP, swapped, (12, -2, 4))


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
    ctx = ModCtx(ell, [np.arange(n)] * 2)
    split = eigen_split(ctx, A, (2, 2, 2))
    assert split.summands is None
    assert sorted((piece.dim, mult) for piece, mult in split.pieces) == pieces
    mt, whole = Meataxe(ell, 2, seed=0), Meataxe(ell, 2, seed=0)
    total = whole.chop(whole_section(ctx))
    assert chop_dims(mt, mt.chop(ctx, split)) == chop_dims(whole, total) == [(1, n)]


# ---------------------------------------------------------------------------
# words on sections of F_ell[P], and the peak-word search order


def _dense_sub(gens, sub, ell):
    """The generators on a submodule in basis coordinates, by dense products."""
    return [(sub.basis.astype(np.int64) @ g)[:, sub.pivots] % ell for g in gens]


def _dense_quotient(gens, sub, ell):
    """The generators on the quotient by a submodule, coordinatised on the
    non-pivot columns, by dense products with the reduce-then-restrict map."""
    n = gens[0].shape[0]
    nonpiv = np.setdiff1d(np.arange(n), sub.pivots)
    P = np.zeros((n, len(nonpiv)), dtype=np.int64)
    P[nonpiv, np.arange(len(nonpiv))] = 1
    P[sub.pivots] = -sub.basis[:, nonpiv].astype(np.int64) % ell
    return [g[nonpiv] @ P % ell for g in gens]


def _dense_word(word, gens, ell):
    """Sum of the word's terms, each a product of the dense generators."""
    d = gens[0].shape[0]
    out = np.zeros((d, d), dtype=np.int64)
    for coeff, seq in word.terms:
        M = np.eye(d, dtype=np.int64)
        for gi in seq:
            M = M @ gens[gi] % ell
        out += coeff * M
    return out % ell


def _section_kinds(ell):
    """(name, section, its generators by dense products) on O+6(2) with its
    certified generating pair: M itself, M's zero-sum submodule S > V = U'_2
    (dim 7), S / V and a class rep of the chop.  M / V is no section: it is
    only spun and projected to (`QuotCtx`), and no word acts on it."""
    pm = cached_analysis("o+", 3, ell).pm
    M = pm.ctxP
    gens = [perm_matrix(p, ell).astype(np.int64) for p in M.perms]
    S, _ones = zero_sum_and_ones(pm)
    V = graph_submodule(pm, 2)
    assert V.dim == 7 and contains(S, V)
    on_s = sub_rep(S)
    V_in_s = Submodule(on_s, *linalg.rref(V.basis[:, S.pivots], ell))
    kinds = [
        ("whole M", whole_section(M), gens),
        ("sub of M", on_s, _dense_sub(gens, S, ell)),
        ("quotient of a sub", quot_rep(V_in_s), _dense_quotient(_dense_sub(gens, S, ell), V_in_s, ell)),
    ]
    mt = Meataxe(ell, M.ngens, seed=0)
    mt.chop(whole_section(M))
    rep = max((c.rep for c in mt.classes), key=lambda r: r.dim)
    assert isinstance(rep, Section) and rep.dim > 1
    lift = rep.lift.astype(np.int64)
    proj = np.eye(len(rep.cols), dtype=np.int64) if rep.proj is None else rep.proj.astype(np.int64)
    kinds.append(("chop class rep", rep, [(lift @ g)[:, rep.cols] @ proj % ell for g in gens]))
    return kinds


@pytest.mark.parametrize("ell", [3, 131])
def test_word_matrix_on_every_section_kind_equals_the_dense_product(ell):
    # six product terms at the largest coefficient, with and without the
    # scalar term: at ell = 131 the gathers' sum leaves int16 storage
    seqs = [(0,), (1, 0), (0, 1, 1), (1,), (0, 0, 1, 0), (1, 1, 0, 1, 0)]
    full = [(ell - 1, seq) for seq in seqs]
    words = [meataxe.Word(tuple(full)), meataxe.Word(tuple(full + [(ell - 1, ())]))]
    stream = meataxe.word_stream(2, ell, 0, 0xC4)
    words += [next(stream) for _ in range(4)]
    assert {any(not seq for _c, seq in w.terms) for w in words} == {True, False}
    want = storage_dtype(ell)
    for name, section, gens in _section_kinds(ell):
        assert section.dim == gens[0].shape[0], name
        for i, g in enumerate(gens):
            assert np.array_equal(section.gen_matrix(i), g), (name, i)
        for word in words:
            got = word.matrix(section)
            assert got.dtype == want, name
            assert np.array_equal(got, _dense_word(word, gens, ell)), (name, word)


@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_peak_words_are_those_of_the_lambda_by_lambda_search(monkeypatch, family, size, ell):
    # ensure_peaks refutes each (word, lam) on the smallest class first; the
    # reference keeps a class's word when it separates and otherwise ranks
    # lam by lam, the target class first and then the others in index order
    born = []
    ensure = Meataxe.ensure_peaks

    def noted(self):
        born[:] = [cls.word for cls in self.classes]
        ensure(self)

    monkeypatch.setattr(Meataxe, "ensure_peaks", noted)
    res = run_analysis(family, size, ell, seed=0)
    mt = res.meataxe
    classes = mt.classes

    def nullity(j, word, lam):
        return classes[j].dim - linalg.rank(_shifted(word, classes[j].rep, lam), ell)

    def separates(word, lam, i):
        return all(nullity(j, word, lam) == 0 for j in range(len(classes)) if j != i)

    def reference(i):
        if separates(*born[i], i):
            return born[i]
        stream = meataxe.word_stream(mt.ngens, ell, 0, 0x9E)
        for _ in range(meataxe.WORD_BUDGET):
            word = next(stream)
            for lam in range(ell):
                if nullity(i, word, lam) == 1 and separates(word, lam, i):
                    return word, lam
        raise AssertionError(f"no reference peak word for class {i}")

    assert [cls.word for cls in classes] == [reference(i) for i in range(len(classes))]


# ---------------------------------------------------------------------------
# the chop's lazy rootless words, the Krylov rows, memoised nullities and the
# socle series' one merge per layer


def _eager_chop_one(mt, action):
    """`Meataxe._chop_one` with every rootless word's factors spun as soon as
    it is drawn: the reference the lazy chop must reproduce."""
    n, ell = action.dim, mt.ell
    stream = meataxe.word_stream(mt.ngens, ell, mt.seed, 0xC4)
    if n == 1:
        word = next(stream)
        return mt.register(action, (word, int(word.matrix(action)[0, 0])))
    for _ in range(meataxe.WORD_BUDGET):
        word = next(stream)
        theta = word.matrix(action)
        v = mt._rng.integers(0, ell, size=n, dtype=np.int64)
        if not v.any():
            v[0] = 1
        p, kry = krylov_annihilator(theta, v, ell)
        roots = [lam for lam in range(ell) if meataxe.poly_eval_int(p, lam, ell) == 0]
        factors = [np.array([(-lam) % ell, 1], dtype=np.int64) for lam in roots]
        if not factors:
            factors = [f for f, _mult in meataxe.factor_poly(p, ell, seed=mt.seed)]
        for f in factors:
            q, _rem = meataxe.poly_divmod(p, f, ell)
            W = spin(action, [(q @ kry[: len(q)]) % ell])
            if W.dim < n:
                return [sub_rep(W), quot_rep(W)]
        for lam in roots:
            Kt = linalg.nullspace(linalg.minus_scalar(theta, lam, ell), ell)
            if Kt.shape[0] != 1:
                continue
            Wt = spin(transpose_action(action), [Kt[0]])
            if Wt.dim < n:
                U = submodule_from_rows(action, linalg.nullspace(Wt.basis, ell))
                return [sub_rep(U), quot_rep(U)]
            return mt.register(action, (word, lam))
    raise BudgetExceededError("eager chop: word budget")


def _chop_calls(res, monkeypatch, eager):
    """The chop of the analysis' pieces, lazy or eager, as one entry per
    `_chop_one` call: (dim, class index or piece dims, rng state after), and
    how each call with pending rootless words ended."""
    calls, ends = [], []
    lazy = Meataxe._chop_one
    first_split = Meataxe._first_split

    def recorded(self, action):
        try:
            out = _eager_chop_one(self, action) if eager else lazy(self, action)
        except BudgetExceededError:
            out = "budget"
        got = out if isinstance(out, (int, str)) else [part.dim for part in out]
        calls.append((action.dim, got, self._rng.bit_generator.state))
        if out == "budget":
            raise BudgetExceededError("budget")
        return out

    def noted(self, action, pending, split):
        out = first_split(self, action, pending, split)
        if pending:
            ends.append("budget" if split is None else "pending" if out is not split else "later")
        return out

    monkeypatch.setattr(Meataxe, "_chop_one", recorded)
    monkeypatch.setattr(Meataxe, "_first_split", noted)
    pm = res.pm
    mt = Meataxe(pm.ell, pm.ctxP.ngens, seed=res.meataxe.seed)
    try:
        mt.chop(pm.ctxP, eigen_split(pm.ctxP, pm._adj, _eigenvalues(res)))
    except BudgetExceededError:
        pass
    monkeypatch.undo()
    return calls, ends


@pytest.mark.parametrize(
    "family,size,ell,seed,budget,want",
    [
        # the simple 210-dimensional piece starts with a rootless word
        ("u", 6, 3, 5, None, set()),
        # a pending word splits first, and a later word's split wins
        ("u", 5, 3, 2, None, {"pending", "later"}),
        ("o-", 3, 3, 5, None, {"pending"}),
        # the budget runs out with a pending word that splits
        ("o-", 3, 3, 5, 1, {"budget"}),
    ],
)
def test_lazy_chop_returns_and_leaves_the_rng_as_the_eager_chop(
    analysis, monkeypatch, family, size, ell, seed, budget, want
):
    res = analysis(family, size, ell, seed)
    if budget is not None:
        monkeypatch.setattr(meataxe, "WORD_BUDGET", budget)
    lazy, ends = _chop_calls(res, monkeypatch, eager=False)
    if budget is not None:
        monkeypatch.setattr(meataxe, "WORD_BUDGET", budget)
    eager, _ = _chop_calls(res, monkeypatch, eager=True)
    assert lazy == eager
    assert want <= set(ends)
    if not want:
        # a rootless word was pending when the piece was certified simple
        assert any(d == 210 and isinstance(got, int) for d, got, _ in lazy)


def test_lazy_chop_factors_no_rootless_annihilator_of_a_simple_piece(analysis, monkeypatch):
    # U6(2), ell = 3, seed 5: the first word on the simple 210-dimensional
    # piece is rootless, and the chop certifies the piece with no factor_poly
    res = analysis("u", 6, 3, 5)
    degrees = []
    factor = meataxe.factor_poly
    monkeypatch.setattr(
        meataxe, "factor_poly", lambda f, ell, seed=0: degrees.append(len(f) - 1) or factor(f, ell, seed)
    )
    registered = []
    register = Meataxe.register
    monkeypatch.setattr(
        Meataxe, "register", lambda self, rep, word: registered.append(rep.dim) or register(self, rep, word)
    )
    pm = res.pm
    mt = Meataxe(pm.ell, pm.ctxP.ngens, seed=5)
    mt.chop(pm.ctxP, eigen_split(pm.ctxP, pm._adj, _eigenvalues(res)))
    assert 210 in registered and degrees == []


def _doubling_krylov(theta, v, ell):
    """The annihilator from Krylov blocks of 64, 128, ... rows, each block
    eliminated afresh: the reference for the one elimination of all rows."""
    n = theta.shape[0]
    kry = np.zeros((n + 1, n), dtype=np.int64)
    kry[0] = v % ell
    filled, size = 1, 64
    while True:
        size = min(size, n + 1)
        for i in range(filled, size):
            kry[i] = kry[i - 1] @ theta % ell
        filled = size
        R, piv = linalg.rref(kry[:filled].T, ell)
        d = len(piv)
        if d < filled:
            p = np.zeros(d + 1, dtype=np.int64)
            p[:d] = (-R[:, d].astype(np.int64)) % ell
            p[d] = 1
            return p, kry[:d]
        size *= 2


@pytest.mark.parametrize("ell", [3, 17])
def test_krylov_annihilator_equals_the_doubling_blocks(ell):
    rng = np.random.default_rng(ell)
    n = 150
    cases = [(_block_theta(n, s, ell, rng), s) for s in (1, 64, 65, 130)]
    cases.append((rng.integers(0, ell, size=(n, n)), n))
    degrees = []
    for theta, s in cases:
        v = np.zeros(n, dtype=np.int64)
        v[n - s :] = rng.integers(0, ell, size=s)
        v[n - 1] = 1
        p, kry = krylov_annihilator(theta, v, ell)
        want_p, want_kry = _doubling_krylov(theta.astype(np.int64), v, ell)
        assert np.array_equal(p, want_p) and np.array_equal(kry, want_kry)
        degrees.append(len(p) - 1)
    assert min(degrees) < n and max(degrees) == n  # degree < n and degree n
    zero = np.zeros(n, dtype=np.int64)
    p, kry = krylov_annihilator(cases[-1][0], zero, ell)
    want_p, want_kry = _doubling_krylov(cases[-1][0], zero, ell)
    assert list(p) == list(want_p) == [1] and kry.shape == want_kry.shape == (0, n)


@pytest.mark.parametrize("family,size,ell", [("o+", 3, 3), ("u", 4, 3), ("u", 5, 3), ("o-", 4, 3)])
def test_ensure_peaks_ranks_each_word_and_eigenvalue_once_per_class(monkeypatch, family, size, ell):
    ranked, asked = [], [0]
    inside = [False]
    ensure, shifted, nullity_of = Meataxe.ensure_peaks, meataxe._shifted, FactorClass.nullity_of

    def noted_ensure(self):
        inside[0] = True
        try:
            ensure(self)
        finally:
            inside[0] = False

    def noted_shifted(word, section, lam):
        if inside[0]:
            ranked.append((word, lam, id(section)))
        return shifted(word, section, lam)

    def counted(self, word, lam, ell):
        asked[0] += inside[0]
        return nullity_of(self, word, lam, ell)

    monkeypatch.setattr(Meataxe, "ensure_peaks", noted_ensure)
    monkeypatch.setattr(meataxe, "_shifted", noted_shifted)
    monkeypatch.setattr(FactorClass, "nullity_of", counted)
    assert run_analysis(family, size, ell, seed=0).report["verdict"]["match"]
    assert ranked and len(ranked) == len(set(ranked)) <= asked[0]


def _socle_series_by_sums(mt, ambient, lat):
    """The socle layers with N merged with each cover's whole basis in turn."""
    bykey = {n.sub.key(): n for n in lat.nodes}
    covers = {}
    for a, b, _c in lat.edges:
        covers.setdefault(a, []).append(next(n for n in lat.nodes if n.ident == b))
    layers, top = [], bykey[zero_submodule(ambient).key()]
    while top.dim < ambient.dim:
        soc = top.sub
        for cover in covers[top.ident]:
            soc = sum_sub(soc, cover.sub)
        nxt = bykey[soc.key()]
        layers.append(nxt.factors - top.factors)
        top = nxt
    return layers


@pytest.mark.parametrize("family,size,ell", [("o+", 3, 3), ("u", 4, 3), ("u", 5, 3), ("o+", 4, 3), ("u", 4, 5)])
def test_socle_series_merges_each_layer_once_as_the_cover_sums(analysis, monkeypatch, family, size, ell):
    res = analysis(family, size, ell)
    mt, M = res.meataxe, res.pm.ctxP
    sums = []
    rowspace_sum = linalg.rowspace_sum
    monkeypatch.setattr(linalg, "rowspace_sum", lambda *a: sums.append(1) or rowspace_sum(*a))
    layers = mt.socle_series(M, res.lattice)
    assert len(sums) == len(layers)
    assert layers == _socle_series_by_sums(mt, M, res.lattice)


# ---------------------------------------------------------------------------
# the lattice certified on the rows each node adds, covers joined instead of
# spun, and the nodes' module generators


def _whole_basis_sum_dim(A, B, _D, ell):
    """dim (A + B) from the smaller whole basis reduced modulo the other:
    the reference for the rank on the rows a node adds over D."""
    big, small = (A, B) if A.dim >= B.dim else (B, A)
    return big.dim + linalg.rank(linalg.reduce_rows(small.basis, big.basis, big.pivots, ell), ell)


def _refuses(mt, lat, ctx) -> bool:
    try:
        mt._certify_lattice(lat, ctx)
    except CertificationError:
        return True
    return False


@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_rank_on_added_rows_is_the_whole_basis_rank_on_every_incomparable_pair(
    analysis, monkeypatch, family, size, ell
):
    # the glued lattices are certified whole here, not only their walked
    # intervals; D is a node below both of the pair, the largest one
    res = analysis(family, size, ell)
    lat, ctx = res.lattice, res.pm.ctxP
    pairs = []
    sum_dim = meataxe._sum_dim

    def recorded(A, B, D, ell):
        r = sum_dim(A, B, D, ell)
        pairs.append((A, B, D, r))
        return r

    monkeypatch.setattr(meataxe, "_sum_dim", recorded)
    res.meataxe._certify_lattice(lat, ctx)
    subs = [n.sub for n in lat.nodes]
    nested = sum(contains(A, B) or contains(B, A) for i, A in enumerate(subs) for B in subs[i + 1 :])
    assert len(pairs) == len(subs) * (len(subs) - 1) // 2 - nested
    for A, B, D, r in pairs:
        assert D is not None and contains(A, D) and contains(B, D)
        below = [n.dim for n in subs if contains(A, n) and contains(B, n)]
        assert D.dim == max(below)
        assert r == _whole_basis_sum_dim(A, B, D, ell)


@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_certify_lattice_refuses_a_removal_as_on_the_whole_bases(analysis, monkeypatch, family, size, ell):
    # every lattice with a node or an edge removed is refused exactly when
    # the certificate on whole bases refuses it, and raises nothing else; a
    # removed edge out of the bottom leaves pairs with no common lower node
    res = analysis(family, size, ell)
    mt, lat, ctx = res.meataxe, res.lattice, res.pm.ctxP
    bottom = next(n.ident for n in lat.nodes if n.dim == 0)
    cases = [_without(lat, ident=n.ident) for n in lat.nodes]
    cases += [_without(lat, edge=edge) for edge in lat.edges]
    out_of_bottom = [False] * len(lat.nodes) + [a == bottom for a, _b, _c in lat.edges]
    no_common = []
    sum_dim = meataxe._sum_dim

    def noted(A, B, D, ell):
        no_common.append(D is None)
        return sum_dim(A, B, D, ell)

    monkeypatch.setattr(meataxe, "_sum_dim", noted)
    got = [_refuses(mt, case, ctx) for case in cases]
    assert not _refuses(mt, lat, ctx)
    assert any(no_common)
    monkeypatch.setattr(meataxe, "_sum_dim", _whole_basis_sum_dim)
    assert got == [_refuses(mt, case, ctx) for case in cases]
    # every lattice with an edge out of the bottom removed is refused
    assert any(out_of_bottom)
    assert all(refused for refused, flag in zip(got, out_of_bottom) if flag)


def _without_joins(monkeypatch):
    """Make every cover of the walk spun: no pair is joined."""
    monkeypatch.setattr(meataxe, "_join", lambda quot, pairs, d, ell: None)


def _nodes_in_order(lat):
    return [(n.ident, n.sub.key(), n.sub.pivots.tobytes(), n.factors, n.gens.tobytes()) for n in lat.nodes]


@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_walk_with_joins_is_the_walk_that_spins_every_line(analysis, monkeypatch, family, size, ell):
    # the same nodes in the same order, with the same generators, and the
    # same edges, glued lattices included
    res = analysis(family, size, ell)
    _without_joins(monkeypatch)
    spun = res.meataxe.lattice(res.pm.ctxP, res.chop_total, res.split)
    assert _nodes_in_order(spun) == _nodes_in_order(res.lattice)
    assert spun.edges == res.lattice.edges


def _walk_counts(res, monkeypatch):
    """The lattice of the analysis walked again, with the covers it joins
    and the spins it takes on quotients of M."""
    joined, spins = [], []
    join, spin_ = meataxe._join, meataxe.spin

    def noted_join(quot, pairs, d, ell):
        out = join(quot, pairs, d, ell)
        joined.append(out is not None)
        return out

    def noted_spin(action, seeds, cap_dim=None):
        spins.append(isinstance(action, QuotCtx))
        return spin_(action, seeds, cap_dim)

    monkeypatch.setattr(meataxe, "_join", noted_join)
    monkeypatch.setattr(meataxe, "spin", noted_spin)
    res.meataxe.lattice(res.pm.ctxP, res.chop_total, res.split)
    monkeypatch.undo()
    return sum(joined), sum(spins)


def test_u6_ell3_seed5_walk_joins_ten_covers_and_spins_twenty_one(analysis, monkeypatch):
    # the u6-dense request: 31 spins on quotients when every line is spun
    res = analysis("u", 6, 3, 5)
    assert res.split.summands is None and len(res.lattice.nodes) == 12
    assert _walk_counts(res, monkeypatch) == (10, 21)
    _without_joins(monkeypatch)
    assert _walk_counts(res, monkeypatch) == (0, 31)


@pytest.mark.parametrize("family,size,ell", SUITE_INSTANCES)
def test_every_node_is_spun_by_its_gens(analysis, family, size, ell):
    res = analysis(family, size, ell)
    ctx = res.pm.ctxP
    for node in res.lattice.nodes:
        assert node.gens.shape[1] == ctx.dim and len(node.gens) <= sum(res.chop_total.values()) + 1
        if node.dim == 0:
            assert not node.gens.any()
            continue
        W = spin(ctx, node.gens)
        assert W.key() == node.sub.key() and np.array_equal(W.pivots, node.sub.pivots)


def test_join_skips_a_cover_inside_the_node_and_refuses_a_wrong_dimension(analysis):
    # U6(2), ell = 3, seed 5, walked from 0: at each node N over a parent P,
    # a cover C != N of P joins to N + C, the node of the cover read off the
    # lattice, and N itself, a cover of P inside N, is skipped
    res = analysis("u", 6, 3, 5)
    lat, ctx = res.lattice, res.pm.ctxP
    byident = {n.ident: n for n in lat.nodes}
    bykey = {n.sub.key(): n for n in lat.nodes}
    joined = 0
    for p, n, _c in lat.edges:
        P, N = byident[p], byident[n]
        if N.dim == ctx.dim:
            continue
        quot = QuotCtx(ctx, N.sub)
        for q, c, cls_idx in lat.edges:
            if q != p or c == n:
                continue
            C, d = byident[c], res.meataxe.classes[cls_idx].dim
            assert meataxe._join(quot, [(P.sub, N.sub)], d, 3) is None
            W = meataxe._join(quot, [(P.sub, N.sub), (P.sub, C.sub)], d, 3)
            assert W.dim == N.dim + d and bykey[W.key()].factors == N.factors + Counter({cls_idx: 1})
            assert np.array_equal(W.pivots, bykey[W.key()].sub.pivots)
            with pytest.raises(CertificationError, match=f"adds {d} dimensions, not {d + 1}"):
                meataxe._join(quot, [(P.sub, C.sub)], d + 1, 3)
            joined += 1
    assert joined >= 10
