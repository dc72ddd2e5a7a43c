"""Isometry group generators, induced point permutations, and order certification.

Generators are transvections t_v : x -> x + (x,v) v with Q(v) = 1 for the
orthogonal families, and pseudo-reflections r_{v,lam} : x -> x + (lam-1)(x,v) v
with (v,v) = 1 and lam a primitive cube root of unity for the unitary families.
Candidate vectors are nonsingular-point representatives (a unitary nonsingular
representative automatically has hermitian norm 1).  Every generator passes an
isometry check before use.

Orders are certified by a stabiliser chain on the set of nonsingular VECTORS:
the point action of a unitary group has the scalars in its kernel, so the
vector action is the faithful one (for the orthogonal families over F2 vectors
and points coincide).  The product of fundamental orbit lengths is always a
lower bound for the generated group; after the Schreier-generator verification
pass it is the exact order, independently of the closed order formulas, which
serve as a cross-check that the pool generates the full group.

Each level of the chain stores a Schreier vector (the parent and the
generator of every orbit point in a spanning tree) and the inverse of each
of its generators.  Stripping walks the tree from the image of the base back
to the base and applies the inverse generator of every edge, so no coset
representative is built or inverted.  The verification checks, at every
level, the Schreier generators of all strong generators fixing the earlier
base points, skipping tree edges (whose Schreier generators are the identity
by construction).  It follows only the images of the base points and of a
frame of vectors spanning the space: a linear map fixing a spanning set is
the identity, so this decides whether a residue is trivial.

Rank and suborbits are certified on P by orbital closure (min-label
propagation on P x P), which needs no stabiliser generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .fields import GF4_CONJ, GF4_MUL, GF4_T, GF4_T2
from .geometry import (
    OPLUS,
    OMINUS,
    PointSets,
    Space,
    f4_pair_form,
    pack_codes,
)


# ---------------------------------------------------------------------------
# matrix arithmetic over the defining field (codes; right action on rows)


def mat_mul(space: Space, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # The products run in float32 (BLAS) and are exact: entries are 0/1 and a
    # sum has at most 2 * dim terms, so its low bit is its value mod 2.
    if space.q == 2:
        return (A.astype(np.float32) @ B.astype(np.float32)).astype(np.uint8) & 1
    a0, a1 = (A & 1).astype(np.float32), (A >> 1).astype(np.float32)
    b0, b1 = (B & 1).astype(np.float32), (B >> 1).astype(np.float32)
    c0 = (a0 @ b0 + a1 @ b1).astype(np.uint8) & 1
    c1 = (a0 @ b1 + a1 @ b0 + a1 @ b1).astype(np.uint8) & 1
    return c0 | (c1 << 1)


def vec_mat(space: Space, V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Apply M to the rows of V."""
    return mat_mul(space, np.atleast_2d(V), M)


def is_isometry(space: Space, M: np.ndarray) -> bool:
    """M preserves the form on every pair of basis vectors (and Q on each, over F2)."""
    if space.q == 2:
        G = space.gram.astype(np.int64)
        Mi = M.astype(np.int64)
        if ((Mi @ G @ Mi.T) % 2 != G).any():
            return False
        upper = np.triu(G, 1)
        q_rows = (Mi @ space.qvals.astype(np.int64) + ((Mi @ upper) * Mi).sum(axis=1)) % 2
        return bool((q_rows == space.qvals).all())
    c, t = f4_pair_form(space, M, M)
    return bool(((c | (t << 1)) == space.gram).all())


def transvection(space: Space, v: np.ndarray) -> np.ndarray:
    """x -> x + (x, v) v; an isometry exactly when Q(v) = 1 (characteristic 2)."""
    Gv = (space.gram.astype(np.int64) @ v.astype(np.int64)) % 2
    M = (np.eye(space.dim, dtype=np.int64) + np.outer(Gv, v.astype(np.int64))) % 2
    return M.astype(np.uint8)


def pseudo_reflection(space: Space, v: np.ndarray, lam: int) -> np.ndarray:
    """x -> x + (lam - 1)(x, v) v for (v, v) = 1 and lam of order 3."""
    m = space.dim
    cv = GF4_CONJ[v]
    Gcv = np.zeros(m, dtype=np.uint8)
    for i in range(m):
        acc = 0
        for j in range(m):
            if space.gram[i, j]:
                acc ^= GF4_MUL[space.gram[i, j], cv[j]]
        Gcv[i] = acc
    mu = lam ^ 1  # lam - 1 in characteristic 2
    M = np.eye(m, dtype=np.uint8)
    for i in range(m):
        M[i] = M[i] ^ GF4_MUL[GF4_MUL[mu, Gcv[i]], v]
    return M


def candidate_generators(space: Space, points: PointSets):
    """Isometry generator candidates from nonsingular-point representatives."""
    if space.q == 2:
        for rep in points.P:
            M = transvection(space, rep)
            if not is_isometry(space, M):
                raise CertificationError("transvection failed the isometry check")
            yield M
    else:
        for rep in points.P:
            for lam in (GF4_T, GF4_T2):
                M = pseudo_reflection(space, rep, lam)
                if not is_isometry(space, M):
                    raise CertificationError("pseudo-reflection failed the isometry check")
                yield M


# ---------------------------------------------------------------------------
# induced permutations


def normalise_rows(space: Space, V: np.ndarray) -> np.ndarray:
    if space.q == 2:
        return V
    first = np.argmax(V != 0, axis=1)
    lead = V[np.arange(len(V)), first]
    scale = np.array([0, 1, 3, 2], dtype=np.uint8)[lead]
    return GF4_MUL[scale[:, None], V]


@dataclass
class PermPair:
    """Permutations induced on P and P0 by one isometry."""

    on_P: np.ndarray
    on_P0: np.ndarray


def code_positions(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Index of each code in the sorted array sorted_codes; every code must occur."""
    pos = np.searchsorted(sorted_codes, codes)
    if not ((pos < len(sorted_codes)).all() and np.array_equal(sorted_codes[pos], codes)):
        raise CertificationError("image point missing from index: not an isometry")
    return pos


def induced_perm(space: Space, points: PointSets, M: np.ndarray) -> PermPair:
    out = []
    for reps, codes in ((points.P, points.P_codes), (points.P0, points.P0_codes)):
        img = normalise_rows(space, vec_mat(space, reps, M))
        perm = code_positions(codes, pack_codes(img, space.q))
        if len(np.unique(perm)) != len(perm):
            raise CertificationError("induced map on points is not a bijection")
        out.append(perm)
    return PermPair(out[0], out[1])


def vector_action_domain(space: Space, points: PointSets) -> np.ndarray:
    """All nonsingular vectors (the scalar multiples of the P representatives), in code order."""
    if space.q == 2:
        return points.P
    reps = points.P
    allv = np.vstack([reps, GF4_MUL[GF4_T, reps], GF4_MUL[GF4_T2, reps]])
    return allv[np.argsort(pack_codes(allv, 4))]


def spanning_frame(space: Space, codes: np.ndarray) -> np.ndarray:
    """Indices of domain vectors that span V, picked greedily in domain order.

    A code's binary digits are the vector's coordinates over F2 (two bits per
    F4 coordinate), so an F2-spanning set is found by XOR elimination on the
    codes; it spans V over F_q as well.  An F_q-linear map fixing every
    vector of the frame is the identity.
    """
    bits = space.dim * (space.q - 1).bit_length()
    reduced: dict[int, int] = {}  # leading bit -> reduced code
    picked = []
    for i, c in enumerate(codes.tolist()):
        while c and c.bit_length() - 1 in reduced:
            c ^= reduced[c.bit_length() - 1]
        if c:
            reduced[c.bit_length() - 1] = c
            picked.append(i)
            if len(picked) == bits:
                return np.array(picked, dtype=np.int64)
    raise CertificationError("the nonsingular vectors do not span the space")


# ---------------------------------------------------------------------------
# stabiliser chain


class _Level:
    """One level of the chain: its base point, strong generators with their
    inverses, and the Schreier vector (parent, gen_of) of the base's orbit."""

    __slots__ = ("base", "gens", "inv_gens", "parent", "gen_of", "orbit")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.inv_gens: list[np.ndarray] = []
        self.parent = [-1] * degree
        self.gen_of = [-1] * degree
        self.orbit: list[int] = [base]

    def add_gen(self, g: np.ndarray):
        g = np.asarray(g, dtype=np.int64)
        inv = np.empty_like(g)
        inv[g] = np.arange(len(g))
        self.gens.append(g)
        self.inv_gens.append(inv)
        self.rebuild_orbit()

    def rebuild_orbit(self):
        self.parent = [-1] * len(self.parent)
        self.gen_of = [-1] * len(self.gen_of)
        self.parent[self.base] = self.base
        self.orbit = [self.base]
        head = 0
        while head < len(self.orbit):
            x = self.orbit[head]
            head += 1
            for gi, g in enumerate(self.gens):
                y = int(g[x])
                if self.parent[y] == -1:
                    self.parent[y] = x
                    self.gen_of[y] = gi
                    self.orbit.append(y)

    def transversal(self, beta: int, points: np.ndarray) -> np.ndarray:
        """Images of points under u_beta, the tree's word with u_beta[base] = beta."""
        path = []
        while beta != self.base:
            path.append(self.gen_of[beta])
            beta = self.parent[beta]
        for gi in reversed(path):
            points = self.gens[gi][points]
        return points


class StabilizerChain:
    """Randomised Schreier-Sims; verify() makes the order exact via Sims' criterion.

    Each level keeps a Schreier vector for its fundamental orbit and the
    inverse of every strong generator, so stripping walks the tree and never
    builds or inverts a coset representative.

    frame: points that no permutation of the groups held here, other than the
    identity, fixes all of (for permutations induced by linear maps on a set
    of vectors, vectors spanning the space).  verify() follows only the
    frame and the base points; by default the frame is every point.
    """

    def __init__(self, degree: int, seed: int = 0, frame: np.ndarray | None = None):
        self.degree = degree
        self.levels: list[_Level] = []
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, degree, 0x5C]))
        self.verified = False
        self._identity = np.arange(degree, dtype=np.int64)
        self.frame = self._identity if frame is None else np.asarray(frame, dtype=np.int64)

    def _is_identity(self, p: np.ndarray) -> bool:
        return bool((p == self._identity).all())

    def _strip(self, img: np.ndarray, slots) -> tuple[np.ndarray, int]:
        """Strip images of points through the chain; slots[li] is where img
        holds the image of level li's base.

        At a level whose orbit holds beta, the image of its base, the element
        becomes u_beta^-1 times itself: the Schreier tree is walked from beta
        back to the base and the stored inverse generator of each edge is
        applied.  Returns (stripped images, level index where it stuck).
        """
        for li, lev in enumerate(self.levels):
            x = int(img[slots[li]])
            parent, gen_of, inv_gens = lev.parent, lev.gen_of, lev.inv_gens
            if parent[x] == -1:
                return img, li
            while x != lev.base:
                img = inv_gens[gen_of[x]][img]
                x = parent[x]
        return img, len(self.levels)

    def sift(self, p: np.ndarray) -> tuple[np.ndarray, int]:
        """Strip p through the chain; (residue, level index where it stuck).

        Each level strips by its Schreier vector (`_strip`): the inverse
        generators along the tree path of p's base image are applied to p,
        with no coset representative built.
        """
        return self._strip(p, [lev.base for lev in self.levels])

    def contains(self, p: np.ndarray) -> bool:
        res, _ = self.sift(p)
        return self._is_identity(res)

    def _add_residue(self, res: np.ndarray, level: int):
        self.verified = False
        if level == len(self.levels):
            moved = np.nonzero(res != self._identity)[0]
            self.levels.append(_Level(int(moved[0]), self.degree))
        self.levels[level].add_gen(res)

    def add_generator(self, p: np.ndarray, rounds: int = 8) -> bool:
        res, level = self.sift(p)
        if self._is_identity(res):
            return False
        self._add_residue(res, level)
        self._random_rounds(rounds)
        return True

    def _random_element(self) -> np.ndarray:
        word = self._identity
        pool = [pair for lev in self.levels for pair in zip(lev.gens, lev.inv_gens)]
        if not pool:
            return word.copy()
        for _ in range(int(self.rng.integers(2, 7))):
            g, g_inv = pool[int(self.rng.integers(0, len(pool)))]
            word = g[word] if self.rng.integers(2) else g_inv[word]
        return word

    def _random_rounds(self, quiet_target: int):
        quiet = 0
        while quiet < quiet_target:
            res, level = self.sift(self._random_element())
            if self._is_identity(res):
                quiet += 1
            else:
                quiet = 0
                self._add_residue(res, level)

    def order_lower_bound(self) -> int:
        out = 1
        for lev in self.levels:
            out *= len(lev.orbit)
        return out

    def verify(self, max_passes: int = 200) -> None:
        """Sims' criterion: every Schreier generator sifts to the identity.

        Witnesses are added and the sweep restarts, so on return the product of
        the fundamental orbit lengths is the exact order of the generated group.
        """
        for _ in range(max_passes):
            witness = self._find_witness()
            if witness is None:
                self.verified = True
                return
            self._add_residue(*witness)
        raise CertificationError("Schreier-Sims verification did not stabilise")

    def _find_witness(self):
        """First Schreier generator that does not strip to the identity, sifted.

        Level i is checked against every strong generator that fixes the
        earlier base points: its own and those of all deeper levels, which
        generate the stabiliser the level stands for (Sims' criterion needs
        them all; a level's own generators alone can miss that its orbit or
        the next stabiliser is too small).  For beta in the orbit and such a
        generator g, g u_beta is stripped directly: stripping it at level i
        removes u_{g beta}, so its residue is that of the Schreier generator
        u_{g beta}^-1 g u_beta.  Tree edges (g the level's own generator on
        the edge from beta to g beta) are skipped, since there
        u_{g beta} = g u_beta and the Schreier generator is the identity.

        Only the images of the base points and the frame are followed, which
        decides the identity; a witness is then sifted as a whole permutation.
        """
        bases = np.array([lev.base for lev in self.levels], dtype=np.int64)
        points = np.concatenate([bases, self.frame])
        fixed = points.tobytes()
        slots = range(len(self.levels))
        for li, lev in enumerate(self.levels):
            gens = lev.gens + [g for low in self.levels[li + 1:] for g in low.gens]
            for beta in lev.orbit:
                u = lev.transversal(beta, points)
                for gi, g in enumerate(gens):
                    if gi < len(lev.gens):
                        img = int(g[beta])
                        if lev.parent[img] == beta and lev.gen_of[img] == gi:
                            continue
                    res, level = self._strip(g[u], slots)
                    if level < len(self.levels) or res.tobytes() != fixed:
                        return self.sift(g[lev.transversal(beta, self._identity)])
        return None

    def order(self) -> int:
        if not self.verified:
            self.verify()
        return self.order_lower_bound()


# ---------------------------------------------------------------------------
# assembling the certified generating set


@dataclass
class GroupData:
    """Pruned generating set with order data and induced point permutations."""

    mats: list[np.ndarray]
    pairs: list[PermPair]
    order: int | None
    formula_order: int
    base_size: int
    order_certified: bool


def formula_order(space: Space) -> int:
    n = space.spec.n
    if space.spec.family in (OPLUS, OMINUS):
        eps = 1 if space.spec.family == OPLUS else -1
        out = 2 * 2 ** (n * (n - 1)) * (2**n - eps)
        for i in range(1, n):
            out *= 4**i - 1
        return out
    m = space.dim
    out = 2 ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        out *= 2**i - (-1) ** i
    return out


def build_group(
    space: Space, points: PointSets, seed: int = 0, certify_order: bool = True
) -> GroupData:
    """Grow a generating set until it provably generates the full isometry group.

    Candidates already sifting into the chain are skipped, so the returned
    matrices are a small generating subset.  The loop stops when the orbit
    lower bound reaches the formula order (the generated group is contained in
    the isometry group, so equality of the bound certifies fullness); with
    certify_order the chain is then Schreier-verified, making the reported
    order a theorem about the generators alone.
    """
    target = formula_order(space)
    domain = vector_action_domain(space, points)
    domain_codes = pack_codes(domain, space.q)  # sorted: the domain is in code order
    chain = StabilizerChain(len(domain), seed=seed, frame=spanning_frame(space, domain_codes))
    mats: list[np.ndarray] = []

    def vec_perm(M):
        return code_positions(domain_codes, pack_codes(vec_mat(space, domain, M), space.q))

    for M in candidate_generators(space, points):
        p = vec_perm(M)
        if chain.contains(p):
            continue
        chain.add_generator(p)
        mats.append(M)
        if chain.order_lower_bound() >= target:
            break
    lb = chain.order_lower_bound()
    if lb > target:
        raise CertificationError("generated group exceeds the isometry group order")
    if lb < target:
        raise CertificationError(
            f"generator pool exhausted at order >= {lb}, formula order {target}"
        )
    if certify_order:
        order = chain.order()
        if order != target:
            raise CertificationError(
                f"verified order {order} disagrees with formula order {target}"
            )
    else:
        order = None
    pairs = [induced_perm(space, points, M) for M in mats]
    return GroupData(mats, pairs, order, target, len(chain.levels), certify_order)


# ---------------------------------------------------------------------------
# rank and suborbits on P


def orbit_of(perms: list[np.ndarray], start: int, degree: int) -> np.ndarray:
    seen = np.zeros(degree, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in perms:
                y = int(g[x])
                if not seen[y]:
                    seen[y] = True
                    nxt.append(y)
        frontier = nxt
    return seen


def rank_and_orbitals(perms: list[np.ndarray], points: PointSets, base: int = 0) -> dict:
    """Transitivity, rank, suborbit sizes on P, and the orbital/adjacency match.

    The orbit partition of P x P is computed by min-label propagation along
    (i, j) -> (g i, g j); the suborbits are the label classes on the base row.
    """
    v = points.nP
    if not orbit_of(perms, 0, v).all():
        return {"transitive": False, "rank": None, "suborbits": [], "orbitals_match": False}
    labels = np.arange(v * v, dtype=np.int64).reshape(v, v)
    while True:
        before = labels
        for g in perms:
            ig = np.argsort(g)
            labels = np.minimum(labels, labels[np.ix_(g, g)])
            labels = np.minimum(labels, labels[np.ix_(ig, ig)])
        if np.array_equal(before, labels):
            break
    row = labels[base]
    classes: dict[int, list[int]] = {}
    for j in range(v):
        classes.setdefault(int(row[j]), []).append(j)
    suborbits = sorted(len(js) for js in classes.values())
    rank = len(classes)
    ok = False
    if rank == 3:
        sets = sorted(classes.values(), key=len)
        delta = set(np.nonzero(points.adj[base])[0].tolist())
        sizes = {frozenset(s) for s in sets[1:]}
        ok = sets[0] == [base] and frozenset(delta) in sizes
    return {"transitive": True, "rank": rank, "suborbits": suborbits, "orbitals_match": ok}
