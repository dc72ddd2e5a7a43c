from types import SimpleNamespace

import numpy as np
import pytest

from rank3mod.fields import GF4_T, GF4_T2
from rank3mod.geometry import (
    OMINUS,
    OPLUS,
    UNITARY,
    SpaceSpec,
    build_space,
    closed_params,
)
import inspect

from rank3mod import groups
from rank3mod.errors import BudgetExceededError, CertificationError
from rank3mod.fields import GF4_MUL
from rank3mod.geometry import pack_codes
from rank3mod.groups import (
    GroupData,
    StabilizerChain,
    build_group,
    candidate_generators,
    code_positions,
    code_table,
    formula_order,
    generating_pair,
    induced_perm,
    is_isometry,
    mat_mul,
    pseudo_reflection,
    rank_and_orbitals,
    spanning_frame,
    transvection,
    vec_mat,
    vector_action_domain,
    word_perm,
)

from conftest import cached_setup, naive_form, naive_quadratic


def test_transvection_examples():
    space = build_space(SpaceSpec(OPLUS, 6))
    v = np.zeros(6, dtype=np.uint8)
    v[0] = v[3] = 1  # e1 + f1, Q = 1
    t = transvection(space, v)
    assert is_isometry(space, t)
    # t(e1) = e1 + (e1, e1+f1)(e1+f1) = f1
    e1 = np.eye(6, dtype=np.uint8)[0]
    assert (e1 @ t % 2 == np.eye(6, dtype=np.uint8)[3]).all()
    # t preserves Q on all 63 nonzero vectors
    for code in range(1, 64):
        x = np.array([(code >> k) & 1 for k in range(6)], dtype=np.uint8)
        assert naive_quadratic(space, (x @ t) % 2) == naive_quadratic(space, x)
    # involution
    assert ((t @ t) % 2 == np.eye(6, dtype=np.int64)).all()


def test_pseudo_reflection_order_three():
    space = build_space(SpaceSpec(UNITARY, 4))
    v = np.zeros(4, dtype=np.uint8)
    v[0] = 1
    v[2] = GF4_T  # e1 + t f1 has norm 1
    r = pseudo_reflection(space, v, GF4_T)
    assert is_isometry(space, r)
    r2 = mat_mul(space, r, r)
    r3 = mat_mul(space, r2, r)
    ident = np.eye(4, dtype=np.uint8)
    assert not (r == ident).all()
    assert not (r2 == ident).all()
    assert (r3 == ident).all()


def test_induced_perm_identity_and_fixed_point():
    space, points, _ = cached_setup(OPLUS, 6)
    ident = np.eye(6, dtype=np.uint8)
    pp = induced_perm(space, points, ident)
    assert (pp.on_P == np.arange(points.nP)).all()
    assert (pp.on_P0 == np.arange(points.nP0)).all()
    v = np.zeros(6, dtype=np.uint8)
    v[0] = v[3] = 1
    t = transvection(space, v)
    pt = induced_perm(space, points, t)
    e2f2 = np.zeros(6, dtype=np.uint8)
    e2f2[1] = e2f2[4] = 1
    idx = code_positions(code_table(points.P_codes, 2**6), pack_codes(e2f2[None, :], 2))[0]
    assert pt.on_P[idx] == idx
    assert len(np.unique(pt.on_P)) == points.nP


@pytest.mark.parametrize(
    "family,dim,order",
    [
        (OPLUS, 6, 40320),
        (OMINUS, 6, 51840),
        (UNITARY, 4, 77760),
        (UNITARY, 5, 41057280),
    ],
)
def test_certified_orders(family, dim, order):
    _, _, gd = cached_setup(family, dim)
    assert gd.order == order
    assert gd.formula_order == order


def test_formula_orders_bigger_instances():
    for family, dim in [(OPLUS, 8), (OMINUS, 8), (UNITARY, 6)]:
        _, _, gd = cached_setup(family, dim)
        assert gd.order == gd.formula_order


def all_generators_on_P(space, points, gd):
    return [induced_perm(space, points, M).on_P for M in gd.mats]


def orbital_closure_reference(perms, points, base=0):
    """Rank and suborbits by orbital closure: min-label propagation on P x P
    along (i, j) -> (g i, g j) for every generator g and its inverse, the
    suborbits being the label classes on the base row."""
    v = points.nP
    moves = []
    for g in perms:
        ig = np.empty_like(g)
        ig[g] = np.arange(v)
        moves += [g, ig]
    labels = np.arange(v * v).reshape(v, v)
    changed = True
    while changed:
        changed = False
        for g in moves:
            img = labels[np.ix_(g, g)]
            if (img < labels).any():
                np.minimum(labels, img, out=labels)
                changed = True
    # transitive when every (i, base) shares an orbital with some (0, j)
    transitive = bool((labels[:, base] // v == 0).all())
    classes: dict[int, list[int]] = {}
    for j, lab in enumerate(labels[base].tolist()):
        classes.setdefault(lab, []).append(j)
    sets = sorted(classes.values(), key=len)
    delta = np.flatnonzero(points.adj[base]).tolist()
    ok = len(sets) == 3 and sets[0] == [base] and delta in sets[1:]
    return {
        "transitive": transitive,
        "rank": len(classes),
        "suborbits": sorted(len(js) for js in classes.values()),
        "orbitals_match": ok,
    }


SUITE_GEOMETRIES = [(OPLUS, 6), (OPLUS, 8), (OMINUS, 6), (OMINUS, 8), (UNITARY, 4), (UNITARY, 5),
                    (UNITARY, 6)]


@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (OMINUS, 8), (UNITARY, 5)])
def test_rank3_and_suborbits(family, dim):
    _, points, gd = cached_setup(family, dim)
    p = closed_params(SpaceSpec(family, dim))
    _, chain = generating_pair(gd, points, seed=0)
    res = rank_and_orbitals(chain, points)
    assert res["transitive"] and res["rank"] == 3
    assert res["suborbits"] == sorted([1, p.a, p.b])
    assert res["orbitals_match"]


@pytest.mark.parametrize("family,dim", SUITE_GEOMETRIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_answer_equals_orbital_closure(family, dim, seed):
    # the pair's chain gives the orbital closure's answer on all generators
    space, points, gd = cached_setup(family, dim, seed)
    _, chain = generating_pair(gd, points, seed=seed)
    want = orbital_closure_reference(all_generators_on_P(space, points, gd), points)
    assert want["rank"] == 3 and want["orbitals_match"]
    assert rank_and_orbitals(chain, points) == want


def test_rank_independent_of_base_point():
    # the same answer on every seed's chain, and on certified chains of G
    # based at other points: a chain's first base is the first point its
    # first generator moves, and a level-1 generator fixes the pair chain's
    # base
    for family, dim in [(OPLUS, 6), (UNITARY, 4)]:
        _, points, gd = cached_setup(family, dim)
        target = gd.formula_order // (points.space.q - 1)
        answers, bases = [], set()
        for seed in range(3):
            pair, chain = generating_pair(gd, points, seed=seed)
            answers.append(rank_and_orbitals(chain, points))
            bases.add(chain.levels[0].base)
            for h in chain.levels[1].gens[:3]:
                other = groups._pair_chain([h] + [p.on_P for p in pair], target, seed)
                if other.order_lower_bound() == target:
                    answers.append(rank_and_orbitals(other, points))
                    bases.add(other.levels[0].base)
        assert len(bases) > 1
        assert all(a == answers[0] for a in answers)


def _chain_on(perms):
    chain = StabilizerChain(len(perms[0]), seed=0)
    for p in perms:
        chain.add_generator(p)
    return chain


@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (OMINUS, 6), (UNITARY, 4)])
def test_chain_on_a_proper_subgroup_does_not_pass(family, dim):
    space, points, gd = cached_setup(family, dim)
    v = points.nP
    # one generator: a transvection or pseudo-reflection, far from transitive
    one = _chain_on([induced_perm(space, points, gd.mats[0]).on_P])
    assert rank_and_orbitals(one, points)["transitive"] is False
    assert rank_and_orbitals(StabilizerChain(v), points)["transitive"] is False
    # the stabiliser G_b of the certified chain fixes b
    _, chain = generating_pair(gd, points, seed=0)
    stab = _chain_on([g for lev in chain.levels[1:] for g in lev.gens])
    assert rank_and_orbitals(stab, points)["transitive"] is False
    # a regular cyclic group is transitive, with trivial point stabilisers
    res = rank_and_orbitals(_chain_on([np.roll(np.arange(v), 1)]), points)
    assert res == {"transitive": True, "rank": v, "suborbits": [1] * v, "orbitals_match": False}
    # a transitive chain whose deeper levels lost generators: G_b splits further
    chain.levels[1].fwd = chain.levels[1].fwd[: v]
    for lev in chain.levels[2:]:
        lev.fwd = lev.fwd[:0]
    res = rank_and_orbitals(chain, points)
    assert res["transitive"] and res["rank"] > 3 and not res["orbitals_match"]


@pytest.mark.parametrize("family,dim", [(OMINUS, 6), (UNITARY, 5)])
def test_orbitals_must_match_the_delta_relation(family, dim):
    # the same chain against a relation whose Delta(b) is not a suborbit
    _, points, gd = cached_setup(family, dim)
    _, chain = generating_pair(gd, points, seed=0)
    shifted = SimpleNamespace(nP=points.nP, adj=np.roll(points.adj, 1, axis=1))
    res = rank_and_orbitals(chain, shifted)
    assert res["rank"] == 3 and not res["orbitals_match"]
    assert rank_and_orbitals(chain, points)["orbitals_match"]


def test_generators_preserve_adjacency_edges():
    space, points, gd = cached_setup(OPLUS, 6)
    A = points.adj
    for s in all_generators_on_P(space, points, gd):
        assert (A[np.ix_(s, s)] == A).all()


def test_stabilizer_chain_on_symmetric_group():
    # S_5 from a transposition and a 5-cycle: order must come out 120
    chain = StabilizerChain(5, seed=1)
    chain.add_generator(np.array([1, 0, 2, 3, 4]))
    chain.add_generator(np.array([1, 2, 3, 4, 0]))
    assert chain.order() == 120
    res, _ = chain.sift(np.array([0, 1, 3, 2, 4]))
    assert (res == np.arange(5)).all()


def test_stabilizer_chain_proper_subgroup():
    # a single 3-cycle on 5 points: order 3, and verification certifies it
    chain = StabilizerChain(5, seed=0)
    chain.add_generator(np.array([1, 2, 0, 3, 4]))
    assert chain.order() == 3
    res, _ = chain.sift(np.array([1, 0, 2, 3, 4]))
    assert not (res == np.arange(5)).all()


def test_chain_order_lower_bound_reaches_order():
    chain = StabilizerChain(4, seed=0)
    chain.add_generator(np.array([1, 0, 3, 2]))
    chain.add_generator(np.array([2, 3, 0, 1]))
    chain.verify()
    assert chain.order() == chain.order_lower_bound() == 4


def test_formula_order_values():
    assert formula_order(build_space(SpaceSpec(OPLUS, 6))) == 40320
    assert formula_order(build_space(SpaceSpec(OMINUS, 6))) == 51840
    assert formula_order(build_space(SpaceSpec(UNITARY, 4))) == 77760
    assert formula_order(build_space(SpaceSpec(UNITARY, 5))) == 41057280


# ---------------------------------------------------------------------------
# Schreier-vector stripping and the verification sweep


def _vector_perms(space, points, mats):
    domain = vector_action_domain(space, points)
    codes = pack_codes(domain, space.q)
    table = code_table(codes, space.q**space.dim)
    perms = [code_positions(table, pack_codes(vec_mat(space, domain, M), space.q)) for M in mats]
    return perms, spanning_frame(space, codes)


def _reference_sift(chain, p):
    """Strip by explicit transversal permutations, inverted by argsort."""
    for li, lev in enumerate(chain.levels):
        beta = int(p[lev.base])
        if lev.parent[beta] == -1:
            return p, li
        u = lev.transversal(beta, np.arange(chain.degree))
        assert u[lev.base] == beta
        p = np.argsort(u)[p]
    return p, len(chain.levels)


@pytest.mark.parametrize(
    "gens,order",
    [
        ([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]], 720),
        ([[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]], 720),
        # a level's own Schreier generators are all trivial here: the 4-cycle
        # alone fills the first orbit, and only the transposition one level
        # down shows that the stabiliser of the first base point is S_3
        ([[1, 2, 3, 0], [0, 2, 1, 3]], 24),
    ],
)
def test_verify_finds_witnesses_without_random_rounds(gens, order):
    chain = StabilizerChain(len(gens[0]), seed=0)
    for g in gens:
        chain.add_generator(np.array(g), rounds=0)
    assert chain.order_lower_bound() < order
    chain.verify()
    assert chain.order_lower_bound() == chain.order() == order


@pytest.mark.parametrize("with_frame", [False, True])
def test_verify_completes_vector_action_chain(with_frame):
    space, points, gd = cached_setup(OMINUS, 6)
    perms, frame = _vector_perms(space, points, gd.mats)
    chain = StabilizerChain(len(perms[0]), seed=0, frame=frame if with_frame else None)
    for p in perms:
        chain.add_generator(p, rounds=0)
    assert chain.order_lower_bound() < formula_order(space)
    chain.verify()
    assert chain.order_lower_bound() == formula_order(space)


def test_sift_of_random_products_is_identity():
    space, points, gd = cached_setup(UNITARY, 4)
    perms, frame = _vector_perms(space, points, gd.mats)
    chain = StabilizerChain(len(perms[0]), seed=3, frame=frame)
    for p in perms:
        chain.add_generator(p)
    assert chain.order() == gd.formula_order
    rng = np.random.default_rng(7)
    for _ in range(20):
        word = np.arange(chain.degree)
        for k in rng.integers(0, len(perms), size=12):
            word = perms[k][word]
        res, level = chain.sift(word)
        assert level == len(chain.levels)
        assert (res == np.arange(chain.degree)).all()


def test_sift_matches_transversal_reference():
    chain = StabilizerChain(7, seed=2)
    chain.add_generator(np.array([1, 2, 0, 3, 4, 5, 6]), rounds=0)
    chain.add_generator(np.array([0, 1, 2, 4, 3, 6, 5]), rounds=0)
    chain.add_generator(np.array([3, 1, 2, 0, 4, 5, 6]), rounds=0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.permutation(7)
        res, level = chain.sift(p)
        ref, ref_level = _reference_sift(chain, p)
        assert level == ref_level
        assert (res == ref).all()


def _reference_strip(chain, img, slots):
    """Strip one element at a time, one stored inverse per tree edge."""
    for li, lev in enumerate(chain.levels):
        x = int(img[slots[li]])
        if lev.parent[x] == -1:
            return img, li
        while x != lev.base:
            img = lev.inv.reshape(-1, chain.degree)[int(lev.gen_of[x])][img]
            x = int(lev.parent[x])
    return img, len(chain.levels)


def _inputs(chain):
    return list(chain._inputs.reshape(-1, chain.degree))


def _reference_find_witness(chain, strong_at_level_0=False):
    """The per-generator sweep: one strip for each Schreier generator.

    At level 0 the generators are the chain's inputs, with no tree edge
    skipped; below (and at level 0 too with strong_at_level_0: Sims'
    criterion on the strong generators alone) they are the strong
    generators fixing the earlier base points, skipping the level's own
    tree edges.  Returns
    (witness sifted by explicit transversals or None, Schreier generators
    tested).
    """
    bases = np.array([lev.base for lev in chain.levels], dtype=np.int64)
    points = np.concatenate([bases, chain.frame])
    slots = range(len(chain.levels))
    tested = 0
    for li, lev in enumerate(chain.levels):
        own = len(lev.gens) if li or strong_at_level_0 else 0
        if own:
            gens = lev.gens + [g for low in chain.levels[li + 1:] for g in low.gens]
        else:
            gens = _inputs(chain)
        for beta in lev.orbit.tolist():
            u = lev.transversal(beta, points)
            for gi, g in enumerate(gens):
                if gi < own:
                    img = int(g[beta])
                    if lev.parent[img] == beta and lev.gen_of[img] == gi:
                        continue
                tested += 1
                res, level = _reference_strip(chain, g[u], slots)
                if level < len(chain.levels) or not (res == points).all():
                    whole = g[lev.transversal(beta, np.arange(chain.degree))]
                    return _reference_sift(chain, whole), tested
    return None, tested


def _rounds0_chain(family, dim, seed, count):
    space, points, gd = cached_setup(family, dim, seed)
    perms, frame = _vector_perms(space, points, gd.mats[:count])
    chain = StabilizerChain(len(perms[0]), seed=seed, frame=frame)
    for p in perms:
        chain.add_generator(p, rounds=0)
    return chain


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("count", [6, 12])
@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (OMINUS, 6), (UNITARY, 4), (OPLUS, 8)])
def test_bulk_sweep_matches_per_generator_sweep(family, dim, seed, count):
    bulk = _rounds0_chain(family, dim, seed, count)
    ref = _rounds0_chain(family, dim, seed, count)
    seen, want = [], []
    for chain, out, find in ((bulk, seen, StabilizerChain._find_witness),
                             (ref, want, lambda c: _reference_find_witness(c)[0])):
        while (witness := find(chain)) is not None:
            res, level = witness
            out.append((level, np.asarray(res, dtype=np.int64).tobytes()))
            chain._add_residue(res, level)
    assert seen == want
    assert bulk.order_lower_bound() == ref.order_lower_bound()


@pytest.mark.parametrize("family,dim", [(OMINUS, 8), (UNITARY, 4)])
def test_sweep_tests_every_schreier_generator(family, dim):
    space, points, gd = cached_setup(family, dim)
    perms, frame = _vector_perms(space, points, gd.mats)
    chain = StabilizerChain(len(perms[0]), seed=0, frame=frame)
    for p in perms:
        chain.add_generator(p)
    chain.verify()
    chain.verify()  # one pass over a complete chain
    # level 0: every (orbit point, input) pair; below, every strong generator
    # fixing the earlier base points, less the tree edges
    want = len(chain.levels[0].orbit) * len(_inputs(chain))
    for li, lev in enumerate(chain.levels[1:], 1):
        gens = sum(len(low.gens) for low in chain.levels[li:])
        want += len(lev.orbit) * gens - (len(lev.orbit) - 1)
    assert chain.schreier_tested == want
    assert _reference_find_witness(chain) == (None, want)


def _chain_state(chain):
    """Bases, orbit lengths, strong generators, inputs and random stream of a chain."""
    return (
        [lev.base for lev in chain.levels],
        [len(lev.orbit) for lev in chain.levels],
        b"".join(lev.fwd.tobytes() for lev in chain.levels),
        chain._inputs.tobytes(),
        chain.rng.bit_generator.state,
    )


def _reference_build(space, points, seed):
    """build_group's candidate loop with every candidate converted in full
    and handed to add_generator; returns the kept matrices and the chain."""
    target = formula_order(space)
    domain = vector_action_domain(space, points)
    codes = pack_codes(domain, space.q)
    table = code_table(codes, space.q**space.dim)
    chain = StabilizerChain(len(domain), seed=seed, frame=spanning_frame(space, codes))
    mats = []
    for M in candidate_generators(space, points):
        img = pack_codes(vec_mat(space, domain, M), space.q)
        if chain.add_generator(code_positions(table, img)):
            mats.append(M)
            if chain.order_lower_bound() >= target:
                break
    return mats, chain


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize(
    "family,dim", [(OPLUS, 6), (OMINUS, 6), (OPLUS, 8), (UNITARY, 4), (UNITARY, 6), (OPLUS, 12)]
)
def test_build_group_keeps_what_full_sifts_keep(family, dim, seed, monkeypatch):
    # candidates decided on the frame in blocks keep the same matrices and
    # leave the same chain, random stream included, as full sifts of each
    space, points, _ = cached_setup(family, dim)
    mats, ref = _reference_build(space, points, seed)
    seen = []
    verify = StabilizerChain.verify

    def spy(chain, max_passes=200):
        seen.append(_chain_state(chain))
        return verify(chain, max_passes)

    monkeypatch.setattr(StabilizerChain, "verify", spy)
    gd = build_group(space, points, seed=seed)
    assert seen == [_chain_state(ref)]
    assert [M.tobytes() for M in gd.mats] == [M.tobytes() for M in mats]
    want = GroupData(mats, gd.order, gd.formula_order)
    (got, _), (pair, _) = generating_pair(gd, points, seed), generating_pair(want, points, seed)
    for x, y in zip(got, pair):
        assert x.on_P.tobytes() == y.on_P.tobytes() and x.on_P0.tobytes() == y.on_P0.tobytes()


def _reference_order(chain):
    """The order certified by the sweep that tests every strong generator at level 0."""
    while (witness := _reference_find_witness(chain, strong_at_level_0=True)[0]) is not None:
        chain._add_residue(*witness)
    return chain.order_lower_bound()


@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (OMINUS, 6), (UNITARY, 4)])
def test_order_on_the_inputs_equals_the_all_strong_generator_sweep(family, dim):
    # chains grown with rounds=0 are incomplete, and the first few kept
    # matrices generate proper subgroups: verify adds witnesses, and the
    # level-0 rule on the inputs certifies the order the old rule does
    full, grown = formula_order(cached_setup(family, dim)[0]), []
    for seed in (0, 1):
        for count in (1, 2, 3, 6, None):
            chain = _rounds0_chain(family, dim, seed, count)
            before = chain.order_lower_bound()
            order = chain.order()
            assert order == _reference_order(_rounds0_chain(family, dim, seed, count))
            assert order <= full
            grown.append((before < order, order < full))
    assert (True, True) in grown and (True, False) in grown


def _reference_random_rounds(chain, quiet_target):
    """Random rounds with every word formed on all points and sifted whole."""
    quiet, ident = 0, np.arange(chain.degree)
    while quiet < quiet_target:
        pool = [pair for lev in chain.levels
                for pair in zip(lev.gens, lev.inv.reshape(-1, chain.degree))]
        word = ident
        if pool:
            for _ in range(int(chain.rng.integers(2, 7))):
                g, g_inv = pool[int(chain.rng.integers(0, len(pool)))]
                word = g[word] if chain.rng.integers(2) else g_inv[word]
        res, level = chain.sift(word)
        if (res == ident).all():
            quiet += 1
        else:
            quiet = 0
            chain._add_residue(res, level)


@pytest.mark.parametrize("with_frame", [True, False])
@pytest.mark.parametrize(
    "family,dim,count", [(OPLUS, 6, 6), (OMINUS, 8, None), (UNITARY, 4, 3), (UNITARY, 5, 6)]
)
def test_random_rounds_on_the_frame_leave_the_chain_of_full_sifts(family, dim, count, with_frame):
    grew = False
    for seed in (0, 1, 5):
        chains = [_rounds0_chain(family, dim, seed, count) for _ in range(2)]
        if not with_frame:
            for chain in chains:
                chain.frame = np.arange(chain.degree)
        before = _chain_state(chains[0])[:3]
        chains[0]._random_rounds(8)
        _reference_random_rounds(chains[1], 8)
        assert _chain_state(chains[0]) == _chain_state(chains[1])
        grew |= _chain_state(chains[0])[:3] != before
    assert grew


def _decided_then_sifted_rounds(chain, quiet_target):
    """Random rounds that decide each word on the followed points and sift a
    kept word whole: the reference for keeping the decision's strip."""
    quiet = 0
    while quiet < quiet_target:
        letters = chain._random_word()
        if chain._trivial_on_frame(chain._word_images(letters, chain._followed())[None])[0]:
            quiet += 1
        else:
            quiet = 0
            chain._add_residue(*chain.sift(chain._word_images(letters, chain._identity)))


@pytest.mark.parametrize(
    "family,dim", [(OPLUS, 6), (OPLUS, 8), (OMINUS, 6), (OMINUS, 8), (UNITARY, 4), (UNITARY, 5)]
)
def test_pair_chains_keep_the_deciding_strip_as_the_sift(monkeypatch, family, dim):
    # a pair chain has no frame, so its followed points are all points and
    # the strip that decides a word is its sift: no kept word is sifted again
    kept = 0
    for seed in (0, 1, 5):
        _, points, gd = cached_setup(family, dim, seed)
        sifts, adds = [], []
        rounds, sift, add = StabilizerChain._random_rounds, StabilizerChain.sift, StabilizerChain._add_residue
        in_rounds = [False]

        def noted_rounds(chain, quiet_target):
            in_rounds[0] = True
            try:
                rounds(chain, quiet_target)
            finally:
                in_rounds[0] = False

        def noted_sift(chain, p):
            sifts.append(in_rounds[0])
            return sift(chain, p)

        def noted_add(chain, res, level):
            adds.append(in_rounds[0])
            return add(chain, res, level)

        monkeypatch.setattr(StabilizerChain, "_random_rounds", noted_rounds)
        monkeypatch.setattr(StabilizerChain, "sift", noted_sift)
        monkeypatch.setattr(StabilizerChain, "_add_residue", noted_add)
        pair, chain = generating_pair(gd, points, seed=seed)
        monkeypatch.undo()
        assert not any(sifts)
        kept += sum(adds)
        monkeypatch.setattr(StabilizerChain, "_random_rounds", _decided_then_sifted_rounds)
        want_pair, want_chain = generating_pair(gd, points, seed=seed)
        monkeypatch.undo()
        assert [p.on_P.tobytes() for p in pair] == [p.on_P.tobytes() for p in want_pair]
        assert _chain_state(chain) == _chain_state(want_chain)
    assert kept  # the rounds kept words


def test_strip_rows_matches_one_at_a_time_with_stuck_rows():
    # an incomplete chain: most random permutations stick at some level
    chain = _rounds0_chain(OMINUS, 6, 0, 6)
    bases = [lev.base for lev in chain.levels]
    rng = np.random.default_rng(4)
    rows = np.array([rng.permutation(chain.degree) for _ in range(300)])
    mixed = rows.copy()
    # random words in the chain's generators strip through
    ident = np.arange(chain.degree)
    mixed[::3] = [chain._word_images(chain._random_word(), ident) for _ in range(100)]
    levels = set()
    for block in (mixed, rows):  # every random row sticks, so the walk runs dry
        img, stuck = chain._strip_rows(block.copy(), bases)
        for row, got, at in zip(block, img, stuck):
            want, want_at = _reference_strip(chain, row, bases)
            assert at == want_at
            assert (got == want).all()
            levels.add(int(at))
    assert {0, len(chain.levels)} < levels  # stuck deeper than level 0, and not stuck


def test_verify_give_up_says_what_it_tried():
    chain = StabilizerChain(6, seed=0)
    chain.add_generator(np.array([1, 0, 2, 3, 4, 5]), rounds=0)
    chain.add_generator(np.array([1, 2, 3, 4, 5, 0]), rounds=0)
    _, tested = _reference_find_witness(chain)
    with pytest.raises(CertificationError, match=rf"1 passes, .* {tested} Schreier generators"):
        chain.verify(max_passes=1)


def test_spanning_frame_spans():
    for family, dim in [(OPLUS, 6), (OMINUS, 8), (UNITARY, 5)]:
        space, points, _ = cached_setup(family, dim)
        domain = vector_action_domain(space, points)
        frame = spanning_frame(space, pack_codes(domain, space.q))
        bits = dim * (space.q - 1).bit_length()
        # the codes' binary digits are F2 coordinates: full F2 rank
        rows = (pack_codes(domain[frame], space.q)[:, None] >> np.arange(bits)) & 1
        assert len(frame) == bits
        assert _f2_rank(rows) == bits


def _f2_rank(rows: np.ndarray) -> int:
    rows = rows.copy() % 2
    rank = 0
    for col in range(rows.shape[1]):
        hit = np.nonzero(rows[rank:, col])[0]
        if len(hit) == 0:
            continue
        r = rank + hit[0]
        rows[[rank, r]] = rows[[r, rank]]
        mask = rows[:, col].astype(bool)
        mask[rank] = False
        rows[mask] ^= rows[rank]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# vectorised matrix helpers against their definitions


def _loop_is_isometry(space, M):
    m = space.dim
    for i in range(m):
        for j in range(m):
            if naive_form(space, M[i], M[j]) != int(space.gram[i, j]):
                return False
    if space.q == 2:
        return all(naive_quadratic(space, M[i]) == int(space.qvals[i]) for i in range(m))
    return True


@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (OMINUS, 6), (UNITARY, 4), (UNITARY, 5)])
def test_is_isometry_matches_loop_definition(family, dim):
    space, points, gd = cached_setup(family, dim)
    rng = np.random.default_rng(11)
    mats = list(gd.mats)
    mats += [rng.integers(0, space.q, size=(dim, dim)).astype(np.uint8) for _ in range(20)]
    mats += [np.eye(dim, dtype=np.uint8)]
    seen = []
    for M in mats:
        want = _loop_is_isometry(space, M)
        assert is_isometry(space, M) == want
        seen.append(want)
    assert set(seen) == {True, False}
    assert is_isometry(space, np.stack(mats)).tolist() == seen


@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (UNITARY, 5)])
def test_mat_mul_matches_integer_reference(family, dim):
    space = build_space(SpaceSpec(family, dim))
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.integers(0, space.q, size=(30, dim)).astype(np.uint8)
        B = rng.integers(0, space.q, size=(dim, dim)).astype(np.uint8)
        if space.q == 2:
            want = (A.astype(np.int64) @ B.astype(np.int64) % 2).astype(np.uint8)
        else:
            want = np.zeros((30, dim), dtype=np.uint8)
            for k in range(dim):
                want ^= GF4_MUL[A[:, k][:, None], B[k][None, :]]
        assert (mat_mul(space, A, B) == want).all()


def _reference_candidates(space, points):
    """x -> x + mu (x, v) v row by row from the form, mu = 1 over F2 and
    lam - 1 for lam = t, t^2 over F4."""
    eye = np.eye(space.dim, dtype=np.uint8)
    for rep in points.P:
        for mu in [1] if space.q == 2 else [GF4_T ^ 1, GF4_T2 ^ 1]:
            M = eye.copy()
            for i in range(space.dim):
                M[i] ^= GF4_MUL[GF4_MUL[mu, naive_form(space, eye[i], rep)], rep]
            yield M


@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (OMINUS, 8), (UNITARY, 4), (UNITARY, 5)])
def test_candidates_match_the_definition_across_blocks(family, dim, monkeypatch):
    space, points, _ = cached_setup(family, dim)
    monkeypatch.setattr(groups, "CANDIDATE_BLOCK", 7)
    got = list(candidate_generators(space, points))
    want = list(_reference_candidates(space, points))
    assert len(got) == len(want) == points.nP * (1 if space.q == 2 else 2)
    assert all(g.dtype == np.uint8 and (g == w).all() for g, w in zip(got, want))
    one = transvection if space.q == 2 else lambda sp, v: pseudo_reflection(sp, v, GF4_T)
    assert (one(space, points.P[5]) == one(space, points.P[3:8])[2]).all()


# ---------------------------------------------------------------------------
# non-isometries are refused by both code lookups


def _non_isometry(space):
    M = np.eye(space.dim, dtype=np.uint8)
    M[0, 1] = 1  # x -> x + x_0 e_1: invertible, not an isometry
    assert not is_isometry(space, M)
    return M


@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (UNITARY, 4)])
def test_induced_perm_rejects_non_isometry(family, dim):
    space, points, _ = cached_setup(family, dim)
    with pytest.raises(CertificationError, match="missing"):
        induced_perm(space, points, _non_isometry(space))


@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (UNITARY, 4)])
def test_vector_perm_rejects_non_isometry(family, dim, monkeypatch):
    space, points, _ = cached_setup(family, dim)
    bad = _non_isometry(space)
    monkeypatch.setattr(groups, "candidate_generators", lambda space, points: iter([bad]))
    with pytest.raises(CertificationError, match="missing"):
        build_group(space, points)


def test_code_positions_rejects_missing_codes():
    table = code_table(np.array([2, 5, 9], dtype=np.int64), 16)
    assert (code_positions(table, np.array([9, 2, 5])) == [2, 0, 1]).all()
    for missing in ([3], [10], [0], [15], [5, 3]):
        with pytest.raises(CertificationError):
            code_positions(table, np.array(missing))


# ---------------------------------------------------------------------------
# the certified generating pair


def _even_words(rng, ngens):
    return [rng.integers(0, ngens, size=2 * int(rng.integers(8, 13))) for _ in range(2)]


@pytest.mark.parametrize("family", [OPLUS, OMINUS])
def test_even_transvection_words_are_not_accepted(family, monkeypatch):
    # every kept generator is a transvection, of Dickson invariant 1: words of
    # even length lie in the index-2 subgroup, whose order the bound never passes
    _, points, gd = cached_setup(family, 6)
    target = gd.formula_order
    rng = np.random.default_rng(11)
    for seed in range(6):
        pair = [word_perm(points, gd.mats, w).on_P for w in _even_words(rng, len(gd.mats))]
        assert groups._pair_chain(pair, target, seed).order_lower_bound() <= target // 2
    monkeypatch.setattr(groups, "_pair_words", _even_words)
    with pytest.raises(BudgetExceededError, match=f"{groups.PAIR_DRAWS} draws"):
        generating_pair(gd, points, seed=0)


def test_pair_give_up_names_the_largest_bound_reached(monkeypatch):
    # every draw stalls, the largest bound in the middle of the draws; the
    # message names it and the target
    _, points, gd = cached_setup(OPLUS, 6)
    draws = groups.PAIR_DRAWS
    bounds = iter([100 + 7 * i % draws for i in range(draws)])

    def stalled(perms, target, seed=0):
        return SimpleNamespace(order_lower_bound=lambda b=next(bounds): b)

    monkeypatch.setattr(groups, "_pair_chain", stalled)
    want = rf"lower bound reached was {100 + draws - 1}, of the target {gd.formula_order}$"
    with pytest.raises(BudgetExceededError, match=want):
        generating_pair(gd, points, seed=0)


def test_pair_bound_above_the_order_is_refused():
    _, points, gd = cached_setup(OPLUS, 6)
    pair = [p.on_P for p in generating_pair(gd, points, seed=0)[0]]
    with pytest.raises(CertificationError, match="exceeds"):
        groups._pair_chain(pair, 1)


@pytest.mark.parametrize(
    "family,dim,scalars", [(OPLUS, 6, 1), (OMINUS, 8, 1), (UNITARY, 4, 3), (UNITARY, 5, 3)]
)
def test_pair_target_is_the_order_on_points(family, dim, scalars, monkeypatch):
    space, points, gd = cached_setup(family, dim)
    targets = []
    pair_chain = groups._pair_chain

    def spy(perms, target, seed=0):
        targets.append(target)
        return pair_chain(perms, target, seed)

    def bound(perms):
        return pair_chain(perms, gd.formula_order, 0).order_lower_bound()

    monkeypatch.setattr(groups, "_pair_chain", spy)
    pair, chain = generating_pair(gd, points, seed=0)
    assert targets[-1] == gd.formula_order // scalars
    assert chain.order_lower_bound() == gd.formula_order // scalars
    # the scalars fix every point: all generators reach no more on P either
    assert bound([p.on_P for p in pair]) == gd.formula_order // scalars
    assert bound(all_generators_on_P(space, points, gd)) == gd.formula_order // scalars


@pytest.mark.parametrize("family,dim", [(OMINUS, 6), (UNITARY, 4)])
def test_same_seed_gives_the_same_pair(family, dim):
    _, points, gd = cached_setup(family, dim)
    (a, _), (b, _) = generating_pair(gd, points, seed=4), generating_pair(gd, points, seed=4)
    for x, y in zip(a, b):
        assert np.array_equal(x.on_P, y.on_P) and np.array_equal(x.on_P0, y.on_P0)
    assert len(a) == 2


@pytest.mark.parametrize("family,dim", [(OPLUS, 6), (UNITARY, 4)])
def test_word_perm_is_the_word_matrix_on_points(family, dim):
    # the word's permutations are its letters' permutations composed, the
    # first letter acting first
    space, points, gd = cached_setup(family, dim)
    letters = [induced_perm(space, points, M) for M in gd.mats]
    rng = np.random.default_rng(2)
    for _ in range(3):
        word = rng.integers(0, len(gd.mats), size=int(rng.integers(15, 26)))
        on_P, on_P0 = np.arange(points.nP), np.arange(points.nP0)
        for i in word:
            on_P, on_P0 = letters[i].on_P[on_P], letters[i].on_P0[on_P0]
        got = word_perm(points, gd.mats, word)
        assert np.array_equal(got.on_P, on_P) and np.array_equal(got.on_P0, on_P0)


# ---------------------------------------------------------------------------
# names the benchmark's tracer wraps


def test_traced_names_and_signatures():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(StabilizerChain.sift) == ["self", "p"]
    assert params(StabilizerChain.verify) == ["self", "max_passes"]
    assert params(groups.build_group)[:2] == ["space", "points"]
    assert params(groups.induced_perm) == ["space", "points", "M"]
    assert params(groups.candidate_generators) == ["space", "points"]
    assert inspect.isgeneratorfunction(groups.candidate_generators)


def test_every_traced_name_resolves():
    # the tracer, loaded by path, looks up each function with getattr and
    # each method in its class's own __dict__; a missing name stops the run
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, name, _span, _measure in tracer.FUNCTIONS:
        if not callable(getattr(importlib.import_module(modname), name, None)):
            missing.append(f"{modname}.{name}")
    for modname, cls_name, meth, _span, _measure in tracer.METHODS:
        cls = getattr(importlib.import_module(modname), cls_name, None)
        if not callable(vars(cls).get(meth) if cls is not None else None):
            missing.append(f"{modname}.{cls_name}.{meth}")
    assert len(tracer.FUNCTIONS) > 15 and len(tracer.METHODS) > 5
    assert missing == []


# (module, name, leading parameters the tracer's measures read) for every
# linalg, modules, meataxe and polys name bench/tracer.py wraps; the tracer
# looks each one up with getattr, so a rename stops the traced run
TRACED_ELSEWHERE = [
    ("rank3mod.linalg", "matmul", ["A", "B"]),
    ("rank3mod.linalg", "rref", ["A"]),
    ("rank3mod.linalg", "rank", []),
    ("rank3mod.linalg", "nullspace", []),
    ("rank3mod.linalg", "reduce_rows", []),
    ("rank3mod.linalg", "in_rowspace", []),
    ("rank3mod.linalg", "rowspace_sum", []),
    ("rank3mod.linalg", "rowspace_intersect", []),
    ("rank3mod.modules", "spin", ["action", "seeds"]),
    ("rank3mod.modules", "Submodule.certify_closed", ["self"]),
    ("rank3mod.modules", "QuotCtx.__init__", ["self", "action", "sub"]),
    ("rank3mod.meataxe", "krylov_annihilator", ["theta", "v", "ell"]),
    ("rank3mod.meataxe", "Meataxe.chop", ["self", "action"]),
    ("rank3mod.meataxe", "Meataxe.socle_series", ["self", "ambient"]),
    ("rank3mod.meataxe", "Meataxe.lattice", ["self", "ambient"]),
    ("rank3mod.meataxe", "Meataxe.is_iso_rep", ["self", "idx", "rep"]),
    ("rank3mod.meataxe", "Word.matrix", ["self", "action"]),
    ("rank3mod.polys", "factor_poly", ["f", "ell"]),
]


@pytest.mark.parametrize("modname,name,lead", TRACED_ELSEWHERE)
def test_traced_names_outside_groups(modname, name, lead):
    import importlib

    obj = importlib.import_module(modname)
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
    assert list(inspect.signature(obj).parameters)[: len(lead)] == lead
