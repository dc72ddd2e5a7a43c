"""Full pipeline: geometry -> group -> permutation module -> structure, plus
comparison of the computed structure against the table expectations.

run_analysis() certifies as it goes (brute-force vs closed parameters, root
patterns, Schreier-Sims order vs formula order, the generating pair the
module work runs on, the rank-3 orbitals read off its chain, the graph
operator cross-checks, the split of F_ell[P] along the adjacency operator:
that it commutes with the pair, that its kernel chains stop and their
pieces make up |P|, and that the summand the lattice is glued from is
simple, socle/chop consistency, lattice perp anti-automorphism and
graph-submodule minimality) and raises on any certification failure.  The
split is computed once and serves both the chop, which runs on its pieces
only, and the lattice.
verify_result() then compares factors, socle layers, and the lattice diagram
against expected(), arbitrating known-typo readings by the computed values.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import CertificationError, OutOfScaleError
from .expected import FF, OMEGA, ExpectedStructure, expected
from .geometry import (
    OMINUS,
    OPLUS,
    SpaceSpec,
    brute_params,
    build_space,
    closed_params,
    enumerate_points,
    quadratic_roots,
    root_pattern,
)
from .groups import build_group, generating_pair, rank_and_orbitals
from .meataxe import Lattice, LatticeNode, Meataxe
from .modules import EigenSplit, PermModule, eigen_split

SCHEMA_VERSION = 1
DEFAULT_MAX_P = 3000


@dataclass
class AnalysisResult:
    report: dict
    expected: ExpectedStructure
    meataxe: Meataxe
    lattice: Lattice
    label_of: dict[int, str]
    pm: PermModule
    chop_total: Counter
    split: EigenSplit  # its summands; the pieces are dropped once chopped


def canon_size(family: str, size: int) -> SpaceSpec:
    """size is n for orthogonal families and m for unitary."""
    if family in (OPLUS, OMINUS):
        return SpaceSpec(family, 2 * size)
    return SpaceSpec(family, size)


def desk_scale_spec(family: str, size: int, max_p: int) -> SpaceSpec:
    """canon_size(family, size), refused with OutOfScaleError when the
    closed-form |P| exceeds max_p, before any point is enumerated."""
    spec = canon_size(family, size)
    v = closed_params(spec).v
    if v > max_p:
        raise OutOfScaleError(f"out of desk scale: {family} size {size} has |P| = {v} > {max_p}")
    return spec


def run_analysis(
    family: str,
    size: int,
    ell: int,
    seed: int = 0,
    max_p: int = DEFAULT_MAX_P,
) -> AnalysisResult:
    t_start = time.monotonic()
    timings: dict[str, int] = {}
    exp = expected(family, size, ell)
    spec = desk_scale_spec(family, size, max_p)
    cp = closed_params(spec)

    t0 = time.monotonic()
    space = build_space(spec)
    points = enumerate_points(space)
    bp = brute_params(points)
    if bp != cp:
        raise CertificationError(f"brute-force parameters {bp} != closed formulas {cp}")
    roots = quadratic_roots(cp)
    if roots != root_pattern(spec):
        raise CertificationError(f"roots {roots} do not match the family pattern")
    timings["geometry"] = _ms_since(t0)

    t0 = time.monotonic()
    gd = build_group(space, points, seed=seed)
    pair, chain = generating_pair(gd, points, seed=seed)
    orb = rank_and_orbitals(chain, points)
    if not (orb["transitive"] and orb["rank"] == 3 and orb["orbitals_match"]):
        raise CertificationError(f"rank-3 certification failed: {orb}")
    if orb["suborbits"] != sorted([1, cp.a, cp.b]):
        raise CertificationError(f"suborbit sizes {orb['suborbits']} != {{1, a, b}}")
    timings["group"] = _ms_since(t0)

    t0 = time.monotonic()
    pm = PermModule(points, ell, [p.on_P for p in pair], [p.on_P0 for p in pair])
    _graph_operator_checks(pm)
    timings["modules"] = _ms_since(t0)

    t0 = time.monotonic()
    eigenvalues = (cp.a, -roots[0], -roots[1])  # of the adjacency operator
    split = eigen_split(pm.ctxP, pm._adj, eigenvalues)
    mt = Meataxe(ell, len(pair), seed=seed)
    total = mt.chop(pm.ctxP, split)
    # the lattice reads only the summands: the chopped pieces, and the words
    # cached on them, need not stay resident
    split = replace(split, pieces=[])
    if sum(mt.classes[i].dim * m for i, m in total.items()) != cp.v:
        raise CertificationError("composition factor dimensions do not sum to |P|")
    label_of = _assign_labels(mt, total, exp)
    timings["chop"] = _ms_since(t0)

    t0 = time.monotonic()
    lat = mt.lattice(pm.ctxP, total=total, split=split)
    _lattice_checks(pm, lat, roots)
    timings["lattice"] = _ms_since(t0)

    t0 = time.monotonic()
    layers = mt.socle_series(pm.ctxP, lat)
    layer_sum = Counter()
    for lay in layers:
        layer_sum.update(lay)
    if layer_sum != total:
        raise CertificationError("socle series layers do not refine the chop factors")
    timings["socle"] = _ms_since(t0)

    timings["total"] = int(1000 * (time.monotonic() - t_start))
    report = _build_report(
        family, size, ell, seed, spec, cp, roots, gd, orb, mt, total, layers, lat,
        label_of, exp, timings,
    )
    return AnalysisResult(report, exp, mt, lat, label_of, pm, total, split)


def _ms_since(t0: float) -> int:
    return int(1000 * (time.monotonic() - t0))


# ---------------------------------------------------------------------------
# pipeline certifications


def _graph_operator_checks(pm: PermModule) -> None:
    """Cross-map equivariance and the image constraints of the
    singular/nonsingular cross maps.

    The adjacency-algebra identity A^2 - (r-s)A - (a-s)I = sJ is not
    tested here.  For v <= EXHAUSTIVE_CHECK_MAX_POINTS `brute_params` has
    checked that A is symmetric with a zero diagonal, so (A^2)_ii is the
    degree a, and has counted r common neighbours on every edge and s on
    every other pair of points: the identity then holds over the integers,
    for the r, s and a that `run_analysis` checks against the closed
    formulas.

    Equivariance is checked on the module's generators, the certified
    generating pair: invariance under a generating set is invariance
    under G.  That of the adjacency operator is checked where its split is
    built (`modules.eigen_split`).

    The images are read off the cross incidence C in closed form.  The
    zero-sum module of F_ell[P] is spanned by the differences e_i - e_last,
    so its image under Q: x -> x C is spanned by the row differences
    C_i - C_last, and it is 0 or <1> exactly when each of them is constant
    (`_image_in_ones`).  The image under R: y -> y C^T of the zero-sum
    module of F_ell[P0] is the same on the column differences.  Both say
    C = u 1^T + 1 w^T, so R's test refuses only what Q's has; it is kept
    as the statement of the second constraint.  No closure check is
    needed: the images of submodules under the equivariant Q and R are
    submodules."""
    ell = pm.ell
    # equivariance of the cross incidence: orthogonality is G-invariant
    C = pm._cross
    for pair_idx in range(pm.ctxP.ngens):
        sP = pm.ctxP.perms[pair_idx]
        sP0 = pm.ctxP0.perms[pair_idx]
        if not np.array_equal(C[np.ix_(sP, sP0)], C):
            raise CertificationError("cross incidence is not generator-invariant")
    if _image_in_ones(C, ell):
        raise CertificationError("image of the zero-sum module under Q degenerate")
    if _image_in_ones(C.T, ell):
        raise CertificationError("image of the singular zero-sum module under R degenerate")


def _image_in_ones(M: np.ndarray, ell: int) -> bool:
    """Whether the row differences M_i - M_last of an F_ell matrix are all
    constant: the rows of (M - M[:, :1]) mod ell are then all equal.  The
    difference stays in (-ell, ell), so it is taken in M's own dtype."""
    D = linalg.mod_in_place(M - M[:, :1], ell)
    return bool((D == D[-1]).all())


def _lattice_checks(pm: PermModule, lat: Lattice, roots: tuple[int, int]) -> None:
    """Self-duality (perp is an anti-automorphism of the lattice) and
    graph-submodule minimality over all nodes.

    perp(node) is identified inside the lattice without computing nullspaces:
    a node of complementary dimension orthogonal to the given one IS its perp.
    Orthogonality is symmetric, so each unordered pair of complementary
    dimensions is tested once, from the node that comes first, and a hit
    counts for both (once for a node that is its own perp).  The form is
    G-invariant, so the perp of a submodule Y is a submodule, and X lies in
    it iff the rows that generate X do (`LatticeNode.gens`): X and Y are
    orthogonal iff gens(X) basis(Y)^T = 0.  Both that product and
    gens(Y) basis(X)^T are tested, so the test stays exact for a node that
    is not a submodule but carries its whole basis as its gens.

    Every node is a submodule, so it contains U'_c = spin(seeds) iff it
    contains the seeds (`PermModule.graph_seeds`); no U'_c is spun.
    """
    v = pm.ctxP.dim
    ell = pm.ell
    by_dim: dict[int, list[int]] = {}
    for i, node in enumerate(lat.nodes):
        by_dim.setdefault(node.dim, []).append(i)
    hits = [0] * len(lat.nodes)
    for i, node in enumerate(lat.nodes):
        mates = [j for j in by_dim.get(v - node.dim, []) if j >= i]
        if node.dim and v - node.dim:
            mates = [j for j in mates if _orthogonal(node, lat.nodes[j], ell)]
        for j in mates:
            hits[i] += 1
            hits[j] += j != i
    for node, count in zip(lat.nodes, hits):
        if count != 1:
            raise CertificationError(
                f"perp of a dim-{node.dim} lattice node matched {count} nodes"
            )
    seeds = [pm.graph_seeds(roots[0]), pm.graph_seeds(roots[1])]
    ones = np.ones((1, v), dtype=np.int64)
    for node in lat.nodes:
        if node.dim == 0:
            continue
        basis, piv = node.sub.basis, node.sub.pivots
        if node.dim == 1 and linalg.in_rowspace(ones, basis, piv, ell):
            continue  # the trivial all-ones line is the allowed exception
        if not any(linalg.in_rowspace(rows, basis, piv, ell) for rows in seeds):
            raise CertificationError(
                f"lattice node of dim {node.dim} contains no graph submodule"
            )


def _orthogonal(X: LatticeNode, Y: LatticeNode, ell: int) -> bool:
    """Whether gens(X) basis(Y)^T and gens(Y) basis(X)^T are both 0.  Each
    is taken transposed, so that the basis is read in its own row order,
    and the smaller basis first: most pairs are refuted by that product."""
    small, big = (X, Y) if X.dim <= Y.dim else (Y, X)
    return not (
        linalg.matmul(small.sub.basis, big.gens.T, ell).any()
        or linalg.matmul(big.sub.basis, small.gens.T, ell).any()
    )


# ---------------------------------------------------------------------------
# labels


def _assign_labels(mt: Meataxe, total: Counter, exp: ExpectedStructure) -> dict[int, str]:
    label_of: dict[int, str] = {}
    for idx in total:
        cls = mt.classes[idx]
        if cls.dim == 1:
            label_of[idx] = FF if cls.trivial else OMEGA
            continue
        matches = [lab for lab, d in exp.dims.items() if d == cls.dim and lab not in (FF, OMEGA)]
        label_of[idx] = matches[0] if len(matches) == 1 else f"?{cls.dim}"
    return label_of


# ---------------------------------------------------------------------------
# report assembly


def _build_report(
    family, size, ell, seed, spec, cp, roots, gd, orb, mt, total, layers, lat,
    label_of, exp, timings,
) -> dict:
    factors = []
    for idx, mult in sorted(total.items(), key=lambda t: (mt.classes[t[0]].dim, label_of[t[0]])):
        cls = mt.classes[idx]
        factors.append(
            {
                "label": label_of[idx],
                "dim": cls.dim,
                "mult": mult,
                "absIrred": True,  # the class's nullity-1 word certifies it
            }
        )
    socle_json = []
    for lay in layers:
        entries = []
        for idx, t in lay.items():
            entries.extend([{"label": label_of[idx], "dim": mt.classes[idx].dim}] * t)
        socle_json.append(sorted(entries, key=lambda e: (e["dim"], e["label"])))

    node_order = sorted(
        lat.nodes, key=lambda nd: (nd.dim, _node_label(nd.factors, label_of), nd.sub.key())
    )
    ids = {nd.ident: f"n{i}" for i, nd in enumerate(node_order)}
    nodes_json = [{"id": ids[nd.ident], "dim": nd.dim} for nd in node_order]
    edges_json = sorted(
        [[ids[a], ids[b]] for a, b, _c in lat.edges],
        key=lambda e: (int(e[0][1:]), int(e[1][1:])),
    )

    verdict = verify_result(lat, layers, total, mt, label_of, exp)
    report = {
        "schema": SCHEMA_VERSION,
        "input": {"family": family, "m": spec.dim, "n": spec.n, "ell": ell, "seed": seed},
        "points": {"nonsingular": cp.v, "singular": _singular_count(spec)},
        "params": {"v": cp.v, "a": cp.a, "b": cp.b, "r": cp.r, "s": cp.s},
        "roots": [roots[0], roots[1]],
        "group": {
            "order": str(gd.order),
            "formulaOrder": str(gd.formula_order),
            "rank": orb["rank"],
            "suborbits": orb["suborbits"],
        },
        "factors": factors,
        "socleSeries": socle_json,
        "lattice": {"nodes": nodes_json, "edges": edges_json},
        "verdict": verdict,
        "timingsMs": timings,
    }
    return report


def _singular_count(spec: SpaceSpec) -> int:
    q, m = spec.q, spec.dim
    total_points = (q**m - 1) // (q - 1)
    return total_points - closed_params(spec).v


def _node_label(factors: Counter, label_of: dict[int, str]) -> tuple[str, ...]:
    out = []
    for idx, mult in factors.items():
        out.extend([label_of[idx]] * mult)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# verification against the tables


def verify_result(
    lat: Lattice,
    layers: list[Counter],
    total: Counter,
    mt: Meataxe,
    label_of: dict[int, str],
    exp: ExpectedStructure,
) -> dict:
    diffs: list[str] = []
    flags = list(exp.flags)

    got_factors = Counter()
    for idx, mult in total.items():
        got_factors[(label_of[idx], mt.classes[idx].dim)] += mult
    want_factors = Counter({(lab, exp.dims[lab]): m for lab, m in exp.factors.items()})
    if got_factors != want_factors:
        diffs.append(f"factors: computed {sorted(got_factors.items())} expected {sorted(want_factors.items())}")

    got_socle = [Counter({label_of[i]: t for i, t in lay.items()}) for lay in layers]
    want_socle = exp.socle
    if want_socle is not None and got_socle != want_socle:
        diffs.append(f"socle: computed {[dict(c) for c in got_socle]} expected {[dict(c) for c in want_socle]}")

    if exp.lattice_nodes is not None:
        got_nodes = [_node_label(nd.factors, label_of) for nd in lat.nodes]
        ident_to_pos = {nd.ident: i for i, nd in enumerate(lat.nodes)}
        got_edges = [(ident_to_pos[a], ident_to_pos[b]) for a, b, _c in lat.edges]
        if not diagram_iso(got_nodes, got_edges, exp.lattice_nodes, exp.lattice_edges):
            diffs.append(
                f"lattice: computed {len(got_nodes)} nodes not isomorphic to expected "
                f"{len(exp.lattice_nodes)}-node diagram"
            )
    return {"match": not diffs, "flags": flags, "diffs": diffs}


def diagram_iso(nodesA, edgesA, nodesB, edgesB) -> bool:
    """Label-preserving isomorphism of small covering diagrams (backtracking)."""
    if len(nodesA) != len(nodesB) or len(edgesA) != len(edgesB):
        return False
    if sorted(nodesA) != sorted(nodesB):
        return False
    adjA = {i: set() for i in range(len(nodesA))}
    adjB = {i: set() for i in range(len(nodesB))}
    downA = {i: set() for i in range(len(nodesA))}
    downB = {i: set() for i in range(len(nodesB))}
    for a, b in edgesA:
        adjA[a].add(b)
        downA[b].add(a)
    for a, b in edgesB:
        adjB[a].add(b)
        downB[b].add(a)

    def sig(i, nodes, up, down):
        return (nodes[i], len(up[i]), len(down[i]))

    sigA = [sig(i, nodesA, adjA, downA) for i in range(len(nodesA))]
    sigB = [sig(i, nodesB, adjB, downB) for i in range(len(nodesB))]
    if sorted(sigA) != sorted(sigB):
        return False
    orderA = sorted(range(len(nodesA)), key=lambda i: (sigA[i], -len(adjA[i])))
    candidates = {i: [j for j in range(len(nodesB)) if sigB[j] == sigA[i]] for i in orderA}
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int) -> bool:
        if pos == len(orderA):
            return True
        i = orderA[pos]
        for j in candidates[i]:
            if j in used:
                continue
            ok = True
            for a in adjA[i]:
                if a in mapping and mapping[a] not in adjB[j]:
                    ok = False
                    break
            if ok:
                for a in downA[i]:
                    if a in mapping and mapping[a] not in downB[j]:
                        ok = False
                        break
            if ok:
                mapping[i] = j
                used.add(j)
                if backtrack(pos + 1):
                    return True
                del mapping[i]
                used.discard(j)
        return False

    return backtrack(0)
