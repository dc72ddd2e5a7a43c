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
of its generators, in one flat table.  Stripping walks the tree from the
image of the base back to the base and applies the inverse generator of
every edge, so no coset representative is built or inverted.  One routine
strips many elements at once: each row holds the images of some points
under one element, and one step of the walk is one gather for all rows.
The verification checks the Schreier generators of the chain's input
generators (the permutations `add_generator` kept) at level 0, and at every
deeper level those of all strong generators fixing the earlier base points,
skipping tree edges (whose Schreier generators are the identity by
construction).  The inputs generate the same group as the strong
generators, and Schreier's lemma holds for any generating set and any
transversal in the group, so level 0 needs no more; there are never more
inputs than strong generators, since each kept input adds one residue.  The
sweep strips the Schreier generators in blocks of rows (Seress, Permutation
Group Algorithms, CUP 2003, section 4.2, on stripping many elements by
Schreier vectors at once) and follows only the images of the base points
and of a frame of vectors spanning the space: a residue is a product of
isometries, so linear, and a linear map fixing a spanning set is the
identity, so this decides whether a residue is trivial.  The first failing
Schreier generator in (level, orbit point, generator) order is the witness,
as in a sweep that tries them one by one.

Candidate generators are built and isometry-checked a block of
representatives at a time.  The chain decides each candidate, and each
random element of its random rounds, on the same followed points: only an
element that does not strip to the identity there is formed as a whole
permutation and sifted, its images on the domain found through a dense
code -> index table.

The module work runs on two generators (`generating_pair`): two random
words in the kept generators, certified to generate G on P by a fresh chain
whose orbit lower bound reaches the order of G on P, as in the fullness
argument above.

Transitivity, rank and suborbits are read off that chain
(`rank_and_orbitals`): its first level's orbit is the orbit of its base b,
and the strong generators of the deeper levels fix b, so their orbits on P
refine those of the stabiliser G_b.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import BudgetExceededError, CertificationError
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


def is_isometry(space: Space, M: np.ndarray):
    """M preserves the form on every pair of basis vectors (and Q on each, over F2).

    M may be a stack of matrices (..., m, m); the answer then has shape (...).
    """
    if space.q == 2:
        G = space.gram.astype(np.int64)
        Mi = M.astype(np.int64)
        forms = (Mi @ G @ np.swapaxes(Mi, -1, -2)) % 2 == G
        upper = np.triu(G, 1)
        q_rows = (Mi @ space.qvals.astype(np.int64) + ((Mi @ upper) * Mi).sum(axis=-1)) % 2
        return forms.all(axis=(-2, -1)) & (q_rows == space.qvals).all(axis=-1)
    c, t = f4_pair_form(space, M, M)
    return ((c | (t << 1)) == space.gram).all(axis=(-2, -1))


def transvection(space: Space, v: np.ndarray) -> np.ndarray:
    """x -> x + (x, v) v; an isometry exactly when Q(v) = 1 (characteristic 2).

    v may be a stack of vectors (..., m); the result is then (..., m, m).
    """
    v = v.astype(np.int64)
    Gv = (v @ space.gram.astype(np.int64)) % 2  # the gram matrix is symmetric
    M = (np.eye(space.dim, dtype=np.int64) + Gv[..., :, None] * v[..., None, :]) % 2
    return M.astype(np.uint8)


def pseudo_reflection(space: Space, v: np.ndarray, lam: int) -> np.ndarray:
    """x -> x + (lam - 1)(x, v) v for (v, v) = 1 and lam of order 3.

    v may be a stack of vectors (..., m); the result is then (..., m, m).
    """
    # row i of the gram matrix against conj(v): the XOR (F4 sum) of the products
    Gcv = np.bitwise_xor.reduce(GF4_MUL[space.gram, GF4_CONJ[v][..., None, :]], axis=-1)
    mu = lam ^ 1  # lam - 1 in characteristic 2
    scaled = GF4_MUL[mu, Gcv]
    return np.eye(space.dim, dtype=np.uint8) ^ GF4_MUL[scaled[..., :, None], v[..., None, :]]


# candidate matrices built and checked together, from this many representatives
CANDIDATE_BLOCK = 256


def candidate_generators(space: Space, points: PointSets):
    """Isometry generator candidates from nonsingular-point representatives.

    They are built and checked a block of representatives at a time and
    handed out one by one, in representative order (and, for the unitary
    families, lam = t before t^2).
    """
    m = space.dim
    for lo in range(0, points.nP, CANDIDATE_BLOCK):
        reps = points.P[lo:lo + CANDIDATE_BLOCK]
        if space.q == 2:
            mats, kind = transvection(space, reps), "transvection"
        else:
            mats = [pseudo_reflection(space, reps, lam) for lam in (GF4_T, GF4_T2)]
            mats, kind = np.stack(mats, axis=1).reshape(-1, m, m), "pseudo-reflection"
        if not is_isometry(space, mats).all():
            raise CertificationError(f"{kind} failed the isometry check")
        yield from mats


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


def code_table(codes: np.ndarray, size: int) -> np.ndarray:
    """Dense lookup of the codes below size: table[c] is the index of code c
    in codes, or -1 when c is not among them."""
    table = np.full(size, -1, dtype=np.int64)
    table[codes] = np.arange(len(codes))
    return table


def code_positions(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Index of each code by a code_table; every code must occur."""
    pos = table[codes]
    if (pos < 0).any():
        raise CertificationError("image point missing from index: not an isometry")
    return pos


def induced_perm(space: Space, points: PointSets, M: np.ndarray) -> PermPair:
    out = []
    for reps, codes in ((points.P, points.P_codes), (points.P0, points.P0_codes)):
        img = normalise_rows(space, vec_mat(space, reps, M))
        perm = code_positions(code_table(codes, space.q**space.dim), pack_codes(img, space.q))
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
    inverses, and the Schreier vector (parent, gen_of) of the base's orbit.

    The k generators are the rows of one flat table `fwd` and their inverses
    those of `inv`, in numpy's index type, so a gather through them converts
    no indices.  `off[x]` is the offset in `inv` of the inverse generator on
    the tree edge into x, so one strip step of many rows of images at once
    is `inv[off[x][:, None] + img]`, x being the rows' base images.  The
    orbit is kept in BFS order, so by depth in the tree (`depth`, -1 off
    the orbit) and a point after its parent.  `tree` repeats parent and
    gen_of as Python lists, for walking one element point by point.
    """

    __slots__ = ("base", "degree", "fwd", "inv", "parent", "gen_of", "off", "depth", "orbit",
                 "tree")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.degree = degree
        self.fwd = np.empty(0, dtype=np.int64)
        self.inv = np.empty(0, dtype=np.int64)
        self.rebuild_orbit()

    @property
    def ngens(self) -> int:
        return len(self.fwd) // self.degree

    @property
    def gens(self) -> list[np.ndarray]:
        return list(self.fwd.reshape(-1, self.degree))

    def add_gen(self, g: np.ndarray):
        g = np.asarray(g, dtype=np.int64)
        inv = np.empty_like(g)
        inv[g] = np.arange(self.degree)
        self.fwd = np.concatenate([self.fwd, g])
        self.inv = np.concatenate([self.inv, inv])
        self.rebuild_orbit()

    def rebuild_orbit(self):
        """Breadth-first Schreier tree: each new point is reached from the
        first (point, generator) pair in (layer order, generator order)."""
        d, k = self.degree, self.ngens
        self.parent = np.full(d, -1, dtype=np.int64)
        self.gen_of = np.full(d, -1, dtype=np.int64)
        self.depth = np.full(d, -1, dtype=np.int64)
        self.parent[self.base], self.depth[self.base] = self.base, 0
        layers = [np.array([self.base], dtype=np.int64)]
        while k:
            frontier = layers[-1]
            ys = self.fwd.reshape(k, d)[:, frontier].T.ravel()  # point-major, generator-minor
            new = np.flatnonzero(self.parent[ys] == -1)
            if not len(new):
                break
            _, first = np.unique(ys[new], return_index=True)
            pick = new[np.sort(first)]
            y = ys[pick]
            self.parent[y], self.gen_of[y] = frontier[pick // k], pick % k
            self.depth[y] = len(layers)
            layers.append(y)
        self.off = self.gen_of * d
        self.orbit = np.concatenate(layers)
        self.tree = (self.parent.tolist(), self.gen_of.tolist())

    def transversal(self, beta: int, points: np.ndarray) -> np.ndarray:
        """Images of points under u_beta, the tree's word with u_beta[base] = beta."""
        path = []
        while beta != self.base:
            path.append(int(self.gen_of[beta]))
            beta = int(self.parent[beta])
        for gi in reversed(path):
            points = self.fwd[gi * self.degree + points]
        return points

    def transversals(self, points: np.ndarray) -> np.ndarray:
        """Images of points under u_beta for every beta, rows in orbit order.

        Built one BFS layer (one depth) at a time: u_beta = g u_parent for
        the generator g on the tree edge into beta, and a layer's parents lie
        in the layer before it.
        """
        pos = np.empty(self.degree, dtype=np.int64)
        pos[self.orbit] = np.arange(len(self.orbit))
        depth = self.depth[self.orbit]
        ends = np.searchsorted(depth, np.arange(1, depth[-1] + 2))
        out = np.empty((len(self.orbit), len(points)), dtype=np.int64)
        out[0] = points
        for start, end in zip(ends, ends[1:]):
            beta = self.orbit[start:end]
            up = out[pos[self.parent[beta]]]
            out[start:end] = self.fwd[self.off[beta][:, None] + up]
        return out


# rows stripped together in one block of the verification sweep
SWEEP_ROWS = 1 << 12


class StabilizerChain:
    """Randomised Schreier-Sims; verify() makes the order exact via Sims' criterion.

    Each level keeps a Schreier vector for its fundamental orbit and the
    inverse of every strong generator, so stripping walks the tree and never
    builds or inverts a coset representative.  One routine (`_strip_rows`)
    strips every element: `sift` passes one row of all point images, the
    verification sweep and the decisions on the frame rows of base and
    frame images.  The permutations `add_generator` kept are the chain's
    inputs; they generate its group, and verify() checks level 0 on them.

    frame: points that no permutation of the groups held here, other than the
    identity, fixes all of (for permutations induced by linear maps on a set
    of vectors, vectors spanning the space).  verify() and the random rounds
    follow only the frame and the base points (`_followed`); by default the
    frame is every point.

    schreier_tested: the Schreier generators the last verify() tested, over
    all its passes.
    """

    def __init__(self, degree: int, seed: int = 0, frame: np.ndarray | None = None):
        self.degree = degree
        self.levels: list[_Level] = []
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, degree, 0x5C]))
        self.verified = False
        self.schreier_tested = 0
        self._identity = np.arange(degree, dtype=np.int64)
        self.frame = self._identity if frame is None else np.asarray(frame, dtype=np.int64)
        self._inputs = np.empty(0, dtype=np.int64)  # the kept inputs, one flat table
        self._points = self._pool = None  # followed points and word letters, until the chain grows

    def _is_identity(self, p: np.ndarray) -> bool:
        return bool((p == self._identity).all())

    def _strip_rows(self, img: np.ndarray, slots, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Strip many elements at once through levels start, start + 1, ...

        Row r of img holds the images of some points under one element, and
        column slots[li] the image of level li's base.  At a level whose
        orbit holds beta, the image of its base, the element becomes
        u_beta^-1 times itself: the rows walk their Schreier trees together,
        deepest first, so that the rows still walking after k steps are a
        prefix, and a step is one gather of the level's inverse generators
        for that prefix.  A lone row (sift) walks its path point by point.
        A row whose base image is outside a level's orbit is stuck there and
        leaves the walk as it is.  img is overwritten.  Returns (stripped
        images, level index where each row stuck, len(levels) if none).
        """
        done, d = len(self.levels), self.degree
        stuck = np.full(len(img), done, dtype=np.int64)
        rows, work = np.arange(len(img)), img  # work[k] is img row rows[k]
        for li in range(start, done):
            lev, slot = self.levels[li], slots[li]
            if not len(work):
                break
            if len(work) == 1:  # one element: its tree path point by point
                x = int(work[0, slot])
                parent, gen_of = lev.tree
                if parent[x] < 0:
                    stuck[rows[0]] = li
                    break
                row = work[0]
                while x != lev.base:
                    o = gen_of[x] * d
                    row = lev.inv[o:o + d][row]
                    x = parent[x]
                work = row[None]
                continue
            # deepest rows first, stuck rows (depth -1) last and out
            depth = lev.depth[work[:, slot]]
            key = depth.max() - depth  # a small key, so the stable sort is a radix sort
            order = np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")
            live = np.count_nonzero(depth >= 0)
            out = order[live:]
            img[rows[out]] = work[out]
            stuck[rows[out]] = li
            order = order[:live]
            rows, work = rows[order], work[order]
            # after k steps only the rows deeper than k still walk: a prefix
            walking = live - np.cumsum(np.bincount(depth[order], minlength=1))
            idx = np.empty_like(work)
            for n in walking[:-1]:
                head = work[:n]
                np.add(lev.off[head[:, slot]][:, None], head, out=idx[:n])
                np.take(lev.inv, idx[:n], out=head, mode="clip")
        img[rows] = work
        return img, stuck

    def sift(self, p: np.ndarray) -> tuple[np.ndarray, int]:
        """Strip p through the chain; (residue, level index where it stuck).

        This is `_strip_rows` on the one row of all of p's images: the
        inverse generators along the tree path of each base image are
        applied to p, with no coset representative built.
        """
        rows = np.array(p, dtype=np.int64, ndmin=2)
        img, stuck = self._strip_rows(rows, [lev.base for lev in self.levels])
        return img[0], int(stuck[0])

    def _add_residue(self, res: np.ndarray, level: int):
        self.verified = False
        self._points = self._pool = None
        if level == len(self.levels):
            moved = np.nonzero(res != self._identity)[0]
            self.levels.append(_Level(int(moved[0]), self.degree))
        self.levels[level].add_gen(res)

    def add_generator(self, p: np.ndarray, rounds: int = 8) -> bool:
        """Sift p; when it is not in the chain's group yet, add its residue,
        keep p as an input generator and run random rounds."""
        res, level = self.sift(p)
        if self._is_identity(res):
            return False
        self._inputs = np.concatenate([self._inputs, np.asarray(p, dtype=np.int64)])
        self._add_residue(res, level)
        self._random_rounds(rounds)
        return True

    def _followed(self) -> np.ndarray:
        """The base points, then the frame points that are not base points."""
        if self._points is None:
            bases = np.array([lev.base for lev in self.levels], dtype=np.int64)
            self._points = np.concatenate([bases, self.frame[~np.isin(self.frame, bases)]])
        return self._points

    def _trivial_on_frame(self, img: np.ndarray) -> np.ndarray:
        """Whether each element strips to the identity, row r of img holding
        the images of the `_followed` points under one element of the
        chain's domain group.  A residue fixing the base points and the
        frame is the identity, so this is exact; a row stuck at a level
        keeps a base image outside its orbit, so not the base.  img is
        overwritten."""
        img, _ = self._strip_rows(img, range(len(self.levels)))
        return (img == self._followed()).all(axis=1)

    def _random_word(self) -> list[np.ndarray]:
        """The letters of a random word: 2 to 6 strong generators or their
        inverses, each drawn from the pool of all levels' generators."""
        if self._pool is None:
            d = self.degree
            self._pool = [[g for lev in self.levels for g in getattr(lev, side).reshape(-1, d)]
                          for side in ("inv", "fwd")]
        inv, fwd = self._pool
        if not len(fwd):
            return []
        letters = []
        for _ in range(int(self.rng.integers(2, 7))):
            i = int(self.rng.integers(0, len(fwd)))
            letters.append(fwd[i] if self.rng.integers(2) else inv[i])
        return letters

    @staticmethod
    def _word_images(letters: list[np.ndarray], points: np.ndarray) -> np.ndarray:
        """Images of points under the word, its first letter acting first, as a new array."""
        out = points.copy()
        for g in letters:
            out = g[out]
        return out

    def _random_rounds(self, quiet_target: int):
        """Random words until quiet_target in a row strip to the identity.

        A word is decided on the followed points alone; only a word that
        does not strip to the identity is formed in full and sifted.
        """
        quiet = 0
        while quiet < quiet_target:
            letters = self._random_word()
            if self._trivial_on_frame(self._word_images(letters, self._followed())[None])[0]:
                quiet += 1
            else:
                quiet = 0
                self._add_residue(*self.sift(self._word_images(letters, self._identity)))

    def order_lower_bound(self) -> int:
        out = 1
        for lev in self.levels:
            out *= len(lev.orbit)
        return out

    def verify(self, max_passes: int = 200) -> None:
        """Sims' criterion: every Schreier generator sifts to the identity.

        At level 0 these are the Schreier generators of the inputs, below
        it those of the strong generators (`_find_witness`).  Witnesses are
        added and the sweep restarts, so on return the product of the
        fundamental orbit lengths is the exact order of the group the
        inputs generate.
        """
        self.schreier_tested = 0
        for _ in range(max_passes):
            witness = self._find_witness()
            if witness is None:
                self.verified = True
                return
            self._add_residue(*witness)
        raise CertificationError(
            f"Schreier-Sims verification did not stabilise: {max_passes} passes, each adding "
            f"a witness, tested {self.schreier_tested} Schreier generators"
        )

    def _find_witness(self):
        """First Schreier generator that does not strip to the identity, sifted.

        Level 0 is checked against the inputs, with no tree edge skipped:
        they generate the chain's group G, so by Schreier's lemma the
        Schreier generators of the inputs over level 0's transversal
        generate the stabiliser of the first base point.  When an input
        maps the orbit outside itself, the row's base image leaves the
        orbit, the row sticks and is a witness, so the orbit's closure is
        checked too.  Level i > 0 is checked against every strong generator
        that fixes the earlier base points: its own and those of all deeper
        levels, which generate the stabiliser the level stands for (Sims'
        criterion needs them all; a level's own generators alone can miss
        that its orbit or the next stabiliser is too small).  For beta in
        the orbit and such a generator g, g u_beta is stripped directly:
        stripping it at level i removes u_{g beta}, so its residue is that
        of the Schreier generator u_{g beta}^-1 g u_beta.  At levels i > 0,
        tree edges (g the level's own generator on the edge from beta to
        g beta) are skipped, since there u_{g beta} = g u_beta and the
        Schreier generator is the identity.

        Only the images of the base points and the frame are followed, which
        decides the identity; at level i the earlier base points, which all
        these elements fix, are left out.  The images under u_beta are built
        once per level for the whole orbit.  Then, for a block of orbit
        points at a time (about SWEEP_ROWS rows), one gather through the
        stacked generators forms every (beta, g) row, beta-major as a sweep
        that tries them one by one would, and `_strip_rows` strips the block
        from level i down.  The first failing row in (level, beta, g) order
        is the witness, sifted as a whole permutation.  schreier_tested
        grows by the rows up to and including it.
        """
        points = self._followed()
        levels, d = len(self.levels), self.degree
        for li, lev in enumerate(self.levels):
            # every element tried here fixes the earlier base points
            followed, slots = points[li:], range(-li, levels - li)
            if li:
                own, stack = lev.ngens, np.concatenate([low.fwd for low in self.levels[li:]])
            else:  # the inputs: none of them labels a tree edge
                own, stack = 0, self._inputs
            ngens = len(stack) // d
            shift = np.arange(ngens, dtype=np.int64) * d
            us = lev.transversals(followed)
            step = max(1, SWEEP_ROWS // ngens)
            for lo in range(0, len(lev.orbit), step):
                beta = lev.orbit[lo:lo + step]
                # the (beta, g) grid without the tree edges
                img_b = lev.fwd[shift[:own] + beta[:, None]]
                keep = np.ones((len(beta), ngens), dtype=bool)
                edge = (lev.parent[img_b] == beta[:, None]) & (lev.gen_of[img_b] == np.arange(own))
                keep[:, :own] = ~edge
                rb, rg = np.nonzero(keep)
                rows = stack[shift[rg][:, None] + us[lo + rb]]
                img, stuck = self._strip_rows(rows, slots, li)
                bad = np.flatnonzero((stuck < levels) | (img != followed).any(axis=1))
                if len(bad):
                    self.schreier_tested += int(bad[0]) + 1
                    b, g = int(beta[rb[bad[0]]]), int(rg[bad[0]])
                    u = lev.transversal(b, self._identity)
                    return self.sift(stack[g * d + u])
                self.schreier_tested += len(rows)
        return None

    def order(self) -> int:
        if not self.verified:
            self.verify()
        return self.order_lower_bound()


# ---------------------------------------------------------------------------
# assembling the certified generating set


@dataclass
class GroupData:
    """Pruned generating set, as isometry matrices, with order data."""

    mats: list[np.ndarray]
    order: int
    formula_order: int


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


def build_group(space: Space, points: PointSets, seed: int = 0) -> GroupData:
    """Grow a generating set until it provably generates the full isometry group.

    Candidates already sifting into the chain are skipped, so the returned
    matrices are a small generating subset.  They are decided a block of
    CANDIDATE_BLOCK at a time on the chain's followed points: one batched
    product gives the images of the base and frame vectors under every
    candidate, and `_strip_rows` strips the block.  A residue is linear, so
    one that fixes the spanning frame is the identity, and the decision is
    exact.  Only the first candidate that does not strip to the identity is
    converted to a whole permutation and given to `add_generator`; the rest
    of the block is decided again under the grown chain.  So the kept
    matrices, the chain and its random stream are those of sifting every
    candidate whole.  The loop stops when the orbit lower bound reaches the
    formula order (the generated group is contained in the isometry group,
    so equality of the bound certifies fullness); the chain is then
    Schreier-verified, level 0 on the kept generators themselves, making
    the reported order a theorem about the generators alone.
    """
    target = formula_order(space)
    domain = vector_action_domain(space, points)
    domain_codes = pack_codes(domain, space.q)  # sorted: the domain is in code order
    chain = StabilizerChain(len(domain), seed=seed, frame=spanning_frame(space, domain_codes))
    table = code_table(domain_codes, space.q**space.dim)
    mats: list[np.ndarray] = []

    def vec_perm(M):
        return code_positions(table, pack_codes(vec_mat(space, domain, M), space.q))

    def moved(block):
        """Indices of the matrices of block that do not strip to the
        identity, decided on the images of the followed points."""
        pts = chain._followed()
        img = pack_codes(mat_mul(space, domain[pts], block).reshape(-1, space.dim), space.q)
        img = code_positions(table, img).reshape(len(block), len(pts))
        return np.flatnonzero(~chain._trivial_on_frame(img))

    cands = candidate_generators(space, points)
    while chain.order_lower_bound() < target:
        block = list(islice(cands, CANDIDATE_BLOCK))
        if not block:
            break
        block = np.stack(block)
        while len(block) and chain.order_lower_bound() < target:
            first = moved(block)[:1]
            if not len(first):
                break
            M, block = block[first[0]], block[first[0] + 1:]
            if chain.add_generator(vec_perm(M)):
                mats.append(M)
    lb = chain.order_lower_bound()
    if lb > target:
        raise CertificationError("generated group exceeds the isometry group order")
    if lb < target:
        raise CertificationError(
            f"generator pool exhausted at order >= {lb}, formula order {target}"
        )
    order = chain.order()
    if order != target:
        raise CertificationError(f"verified order {order} disagrees with formula order {target}")
    return GroupData(mats, order, target)


# ---------------------------------------------------------------------------
# a certified generating pair for the module work

PAIR_WORD_LENGTHS = (15, 25)  # inclusive bounds of a pair word's length
PAIR_DRAWS = 16  # pairs drawn before generating_pair gives up
PAIR_ROUNDS = 8  # quiet random sifts after which a pair's chain counts as stalled


def _pair_words(rng: np.random.Generator, ngens: int) -> list[np.ndarray]:
    lo, hi = PAIR_WORD_LENGTHS
    return [rng.integers(0, ngens, size=int(rng.integers(lo, hi + 1))) for _ in range(2)]


def word_perm(points: PointSets, mats: list[np.ndarray], word) -> PermPair:
    """The permutations on P and P0 of the product of mats[i] over i in word,
    in word order (right action: the first letter acts first)."""
    space = points.space
    M = np.eye(space.dim, dtype=np.uint8)
    for i in word:
        M = mat_mul(space, M, mats[i])
    return induced_perm(space, points, M)


def _pair_chain(perms: list[np.ndarray], target: int, seed: int = 0) -> StabilizerChain:
    """A fresh chain grown on perms until its orbit lower bound reaches
    target or a batch of PAIR_ROUNDS quiet random sifts adds nothing.

    perms lie in a group of order target, so the bound never exceeds it
    unless something is wrong; reaching it certifies that they generate
    that group.
    """
    chain = StabilizerChain(len(perms[0]), seed=seed)
    for p in perms:
        chain.add_generator(p, rounds=PAIR_ROUNDS)
    bound = chain.order_lower_bound()
    while bound < target:
        chain._random_rounds(PAIR_ROUNDS)
        grown = chain.order_lower_bound()
        if grown == bound:
            break
        bound = grown
    if bound > target:
        raise CertificationError(f"a generating pair's group exceeds the order {target} on P")
    return chain


def generating_pair(
    gd: GroupData, points: PointSets, seed: int = 0
) -> tuple[list[PermPair], StabilizerChain]:
    """Two elements of G, as PermPairs, whose permutations generate G on P,
    and the chain on P that certifies it.

    Each is a word of PAIR_WORD_LENGTHS letters in the kept generators,
    drawn from a stream seeded by seed and their number.  A pair is accepted
    when the orbit lower bound of `_pair_chain` reaches the order of G on P:
    the formula order over the scalars of norm 1 (F_q^x for q = 2, 4), which
    fix every point.  So the pair generates G modulo those scalars, which
    fix every point of P0 too, and any module of G on P or P0 has the same
    submodules under the pair.  A certificate is needed: every orthogonal
    generator is a transvection, and words of even length lie in the
    index-2 subgroup.
    """
    target = gd.formula_order // (points.space.q - 1)
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(gd.mats), 0x2B]))
    best = 0
    for _ in range(PAIR_DRAWS):
        pair = [word_perm(points, gd.mats, w) for w in _pair_words(rng, len(gd.mats))]
        chain = _pair_chain([p.on_P for p in pair], target, seed)
        if chain.order_lower_bound() == target:
            return pair, chain
        best = max(best, chain.order_lower_bound())
    raise BudgetExceededError(
        f"no certified generating pair within {PAIR_DRAWS} draws: the largest orbit "
        f"lower bound reached was {best}, of the target {target}"
    )


# ---------------------------------------------------------------------------
# rank and suborbits on P


def rank_and_orbitals(chain: StabilizerChain, points: PointSets) -> dict:
    """Transitivity, rank, suborbit sizes on P, and the orbital/adjacency
    match, read off a stabiliser chain of G on P.

    G is transitive when the first level's orbit is all of P; let b be its
    base.  The suborbits are the orbits on P of the strong generators of
    all deeper levels, found by min-label propagation on one label per
    point.  These generators fix b, so {b} is one of their orbits, and
    their orbits refine those of G_b.  G preserves the Delta-relation
    (`modules.eigen_split` checks this on the generating pair),
    so G_b preserves {b}, Delta(b) and the rest.  When there are three
    orbits and Delta(b) is one of them, they are exactly the orbits of G_b,
    and the rank is 3 (orbitals_match).  This does not depend on the order
    formula.
    """
    v = points.nP
    if not chain.levels or len(chain.levels[0].orbit) != v:
        return {"transitive": False, "rank": None, "suborbits": [], "orbitals_match": False}
    b = chain.levels[0].base
    # x takes the label of g x when that is lower; at the fixed point the
    # labels are constant along every cycle of every generator
    labels = np.arange(v)
    changed = True
    while changed:
        changed = False
        for lev in chain.levels[1:]:
            for g in lev.gens:
                img = labels[g]
                if (img < labels).any():
                    np.minimum(labels, img, out=labels)
                    changed = True
    sizes = np.bincount(labels)  # nonzero exactly at each orbit's least point
    rank = int(np.count_nonzero(sizes))
    delta = points.adj[b]
    ok = rank == 3 and np.array_equal(labels == labels[np.argmax(delta)], delta)
    return {
        "transitive": True,
        "rank": rank,
        "suborbits": sorted(sizes[sizes > 0].tolist()),
        "orbitals_match": bool(ok),
    }
