"""Meataxe-style structure analysis: composition factors, isomorphism testing,
absolute-irreducibility certification, socles, socle series, and full
submodule lattices at desk scale.

The toolbox is the classical one.  Random algebra words (sums of short
products of generators, drawn from a seeded stream) are probed through the
annihilator polynomial of a seeded vector (Krylov); irreducible factors of
that polynomial divide the characteristic polynomial, so kernel vectors of
f(theta) are split candidates, and Norton's criterion (kernel vector spins to
everything, transpose-side kernel vector spins to everything, nullity equal
to deg f) certifies irreducibility.  A nullity-1 eigenvalue word on a simple
module also certifies absolute irreducibility: any endomorphism preserves the
kernel line, so it is scalar on a generator.  The same word tests a module T
for isomorphism with a simple S of dimension d (the standard-basis test): the
spin of (kernel vector on S, kernel vector on T) in S + T has dimension d
exactly when S and T are isomorphic.

Socles are located with peak words: a word theta and eigenvalue lam with
nullity 1 on the target factor and invertible on every other composition
factor of the ambient module.  Kernel vectors of (theta - lam) in a module M
are then candidate images of the factor's distinguished line under
homomorphisms into M; a candidate m is genuine exactly when its spin has the
factor's dimension (every head constituent of spin(m) is killed by
theta - lam, hence is the target factor).  Valid candidate lines give the
simple submodules isomorphic to the factor.  Applied to the quotient by every
submodule found so far, they give the minimal overmodules, and so, bottom-up,
the full submodule lattice.  The socle series is then read off the certified
lattice: soc(M/N) is the sum of the minimal overmodules of N.

An operator A commuting with the group (the adjacency operator of the
rank-3 graph) cuts M by elimination alone (`modules.eigen_split`).  Its
generalised eigenspaces E are submodules, and so are the kernels of
B = A - mu on the chain E > E B > ...; since M / Ker B is isomorphic to
M B, the chop runs only on the pieces Ker(B | E B^j) / Ker(B | E B^(j+1))
and counts each j + 1 times (`Meataxe.chop`).  When an eigenvalue's residue
occurs once, M is the direct sum S + D of that eigenspace S, checked to be
simple, and the other generalised eigenspaces D.  Then only the interval
[S, M], a copy of the lattice of D, is walked, and the other submodules are
glued on by Goursat's lemma: the submodules U of D and, over every cover
U < U' of D with U'/U isomorphic to S, the ell - 1 graphs of the
surjections U' -> S with kernel U (`Meataxe.lattice`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BudgetExceededError, CertificationError
from .linalg import krylov_annihilator
from .modules import (
    DenseRep,
    EigenSplit,
    ModCtx,
    QuotCtx,
    Submodule,
    Summands,
    spin,
    sub_rep,
    submodule_from_rows,
    sum_sub,
    zero_submodule,
)
from .polys import factor_poly, poly_divmod, poly_eval_int

HOM_MULTIPLICITY_CAP = 3
WORD_BUDGET = 80  # words each randomised search draws before it gives up
LATTICE_NODE_BUDGET = 600
LATTICE_LENGTH_BOUND = 8  # composition length above which no lattice is built


# ---------------------------------------------------------------------------
# words in the group algebra


@dataclass(frozen=True)
class Word:
    """Sum of scalar multiples of generator products.

    Matrices are cached on the action under the word itself: streams of
    different seeds reuse the same indices.
    """

    index: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def matrix(self, action) -> np.ndarray:
        cache = getattr(action, "_word_cache", None)
        if cache is None:
            cache = {}
            action._word_cache = cache
        hit = cache.get(self)
        if hit is not None:
            return hit
        if len(cache) >= 4 and action.dim > 512:
            cache.pop(next(iter(cache)))
        n, ell = action.dim, action.ell
        if isinstance(action, QuotCtx):
            # the projection is equivariant for the whole group algebra, so
            # the quotient matrix of the word is lift . ambient-word . project
            amb = self.matrix(action.ambient)
            out = linalg.matmul(amb[action.nonpivots], action._proj, ell)
        else:
            out = np.zeros((n, n), dtype=np.int64)  # the sum of the terms, reduced once
            for coeff, seq in self.terms:
                if len(seq) == 0:
                    out[np.arange(n), np.arange(n)] += coeff
                    continue
                if isinstance(action, ModCtx):
                    pi = np.arange(n, dtype=np.int64)
                    for gi in seq:
                        pi = action.perms[gi][pi]
                    out[np.arange(n), pi] += coeff
                else:
                    M = action.gen_matrix(seq[0])
                    for gi in seq[1:]:
                        M = linalg.matmul(M, action.gen_matrix(gi), ell)
                    out += np.multiply(coeff, M, dtype=np.int64)  # would wrap in M's dtype
            out = linalg.asmat(out, ell)
        cache[self] = out
        return out


def word_stream(ngens: int, ell: int, seed: int, tag: int):
    """Deterministic endless stream of words.

    Several product terms per word: single group elements have structured
    spectra (roots of unity), while sums of a few random products behave like
    uniform algebra elements, which the peak-word searches rely on.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, ell, ngens, tag]))
    index = tag << 24
    while True:
        nterms = int(rng.integers(3, 7))
        terms = []
        for _ in range(nterms):
            length = int(rng.integers(1, 9))
            seq = tuple(int(g) for g in rng.integers(0, ngens, size=length))
            coeff = int(rng.integers(1, ell))
            terms.append((coeff, seq))
        if rng.integers(0, 2):
            terms.append((int(rng.integers(1, ell)), ()))
        index += 1
        yield Word(index, tuple(terms))


def transpose_action(action):
    if isinstance(action, ModCtx):
        return ModCtx(action.ell, [np.argsort(p) for p in action.perms], action.tag + "^T")
    return DenseRep(action.ell, [action.gen_matrix(i).T for i in range(action.ngens)])


# ---------------------------------------------------------------------------
# annihilator polynomials


def _poly_on_matrix(p: np.ndarray, theta: np.ndarray, ell: int) -> np.ndarray:
    """p(theta) by Horner."""
    n = theta.shape[0]
    out = linalg.zeros((n, n), ell)
    for c in p[::-1]:
        out = linalg.matmul(out, theta, ell)
        if c:
            out[np.arange(n), np.arange(n)] = (out.diagonal() + c) % ell
    return out


def left_kernel(M: np.ndarray, ell: int) -> np.ndarray:
    """{v : v M = 0} as RREF rows."""
    return linalg.nullspace(M.T, ell)


# ---------------------------------------------------------------------------
# factor classes


@dataclass
class FactorClass:
    """A certified-simple class.  `word` is a (word, eigenvalue) of nullity 1
    on it, which certifies it absolutely irreducible; `ensure_peaks` makes it
    a peak word, invertible on every other class."""

    rep: DenseRep
    dim: int
    word: tuple[Word, int] | None = None
    trivial: bool = False  # all generators act as the identity

    def nullity_of(self, word: Word, lam: int, ell: int) -> int:
        return self.dim - linalg.rank(_shifted(word, self.rep, lam), ell)


@dataclass
class LatticeNode:
    ident: int
    sub: Submodule
    factors: Counter

    @property
    def dim(self) -> int:
        return self.sub.dim


@dataclass
class Lattice:
    nodes: list[LatticeNode]
    edges: list[tuple[int, int, int]]  # (lower ident, upper ident, class idx)


class _Nodes:
    """Lattice nodes by key in the order they are added, within LATTICE_NODE_BUDGET."""

    def __init__(self):
        self.bykey: dict[bytes, LatticeNode] = {}
        self.nodes: list[LatticeNode] = []
        self.edges: list[tuple[int, int, int]] = []

    def add(self, sub: Submodule, factors: Counter, fresh: bool = False) -> LatticeNode:
        """The node of `sub`, added unless present; a `fresh` node must not be."""
        key = sub.key()
        node = self.bykey.get(key)
        if node is not None:
            if fresh or node.factors != factors:
                raise CertificationError(f"a dim-{sub.dim} submodule was reached twice")
            return node
        node = LatticeNode(len(self.nodes), sub, factors)
        self.bykey[key] = node
        self.nodes.append(node)
        if len(self.nodes) > LATTICE_NODE_BUDGET:
            raise BudgetExceededError(f"lattice node budget exceeded ({LATTICE_NODE_BUDGET} nodes)")
        return node

    def lattice(self) -> Lattice:
        return Lattice(list(self.nodes), list(self.edges))


class Meataxe:
    """Structure analysis engine for one prime and one generator indexing."""

    def __init__(self, ell: int, ngens: int, seed: int = 0):
        self.ell = ell
        self.ngens = ngens
        self.seed = seed
        self.classes: list[FactorClass] = []
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, ell, 0xC0]))

    def register(self, rep: DenseRep, word: tuple[Word, int] | None = None) -> int:
        """Class index of a certified-simple rep: the first class of its
        dimension that `is_iso_rep` (exact) matches, or else a new class.
        `word`, of nullity 1 on rep, becomes the class word unless the class
        has one: nullity is the same on isomorphic modules."""
        dim = rep.dim
        for idx, cls in enumerate(self.classes):
            if cls.dim == dim and self.is_iso_rep(idx, rep):
                if cls.word is None:
                    cls.word = word
                return idx
        trivial = all(
            np.array_equal(rep.gen_matrix(i), np.eye(dim, dtype=np.int64))
            for i in range(rep.ngens)
        )
        self.classes.append(FactorClass(rep, dim, word, trivial))
        return len(self.classes) - 1

    # -- chop ---------------------------------------------------------------

    def chop(self, action, split: EigenSplit | None = None) -> Counter:
        """Composition factors with multiplicities as Counter{class index}.

        With `split`, an `EigenSplit` of `action` along an operator A that
        commutes with it, only the split's pieces are chopped, and each
        factor of a piece counts as often as the piece's multiplicity.  This
        is exact: A commutes with the generators (`modules.eigen_split`
        checks this where it builds the split), so Ker B and Im B are
        submodules for every B = A - mu, and M / Ker B is isomorphic to Im B
        by rank-nullity.  Unrolled along the chain E > E B > ... of each
        generalised eigenspace E, the factors of M are those of the pieces
        Ker(B | E B^j) / Ker(B | E B^(j+1)), each counted j + 1 times, and
        the pieces' dimensions so counted are checked to add up to dim M.
        The pieces are built by elimination only, with no random word.
        """
        out: Counter = Counter()
        stack = [(action, 1)] if split is None else list(split.pieces)
        while stack:
            m, mult = stack.pop()
            if m.dim == 0:
                continue
            res = self._chop_one(m)
            if isinstance(res, int):
                out[res] += mult
            else:
                stack.extend((part, mult) for part in res)
        return out

    def _chop_one(self, action):
        """Either a class index (certified simple) or a [sub_rep, quot_rep] split."""
        n = action.dim
        if n == 1:
            return self.register(densify(action))
        stream = word_stream(self.ngens, self.ell, self.seed, 0xC4)
        for _ in range(WORD_BUDGET):
            word = next(stream)
            theta = word.matrix(action)
            v = self._rng.integers(0, self.ell, size=n, dtype=np.int64)
            if not v.any():
                v[0] = 1
            p, kry = krylov_annihilator(theta, v, self.ell)
            # roots of the annihilator give linear factors without a full
            # factorisation; escalate to the generic route only when rootless
            factors = [
                (np.array([(-lam) % self.ell, 1], dtype=np.int64), 1)
                for lam in range(self.ell)
                if poly_eval_int(p, lam, self.ell) == 0
            ]
            if not factors:
                factors = factor_poly(p, self.ell, seed=self.seed)
            # split attempts: kernel vectors are free from the Krylov cache
            for f, _mult in factors:
                q, rem = poly_divmod(p, f, self.ell)
                if rem.any():
                    raise CertificationError("annihilator factorisation inconsistent")
                u = (q @ kry[: len(q)]) % self.ell if len(q) <= len(kry) else None
                if u is None or not u.any():
                    continue
                W = spin(action, [u])
                if 0 < W.dim < n:
                    return [sub_rep(W), QuotCtx(action, W)]
            # Norton certification on a minimal-nullity factor
            for f, _mult in factors:
                fM = _poly_on_matrix(f, theta, self.ell)
                K = left_kernel(fM, self.ell)
                if K.shape[0] != len(f) - 1:
                    continue  # nullity != deg f: no certificate from this factor
                W = spin(action, [K[0]])
                if W.dim < n:
                    return [sub_rep(W), QuotCtx(action, W)]
                Kt = linalg.nullspace(fM, self.ell)
                Wt = spin(transpose_action(action), [Kt[0]])
                if Wt.dim < n:
                    U = submodule_from_rows(action, linalg.nullspace(Wt.basis, self.ell))
                    if not 0 < U.dim < n:
                        raise CertificationError("transpose-side split produced no submodule")
                    return [sub_rep(U), QuotCtx(action, U)]
                # simple; certified, and a linear f is a nullity-1 word
                n1 = (word, int((-f[0]) % self.ell)) if len(f) == 2 else None
                return self.register(densify(action), n1)
        raise BudgetExceededError(
            f"chop: no certificate for a dim-{n} module within {WORD_BUDGET} words"
        )

    # -- isomorphism testing ----------------------------------------------

    def is_iso_rep(self, idx: int, rep: DenseRep) -> bool:
        """Standard-basis isomorphism test between class idx and rep, as one spin.

        With S = the class's rep, d = dim S and (theta, lam) a nullity-1 word
        on S, spin (k_S, k_T) in S + T for k_S, k_T spanning the kernels of
        theta - lam on S and on T = rep, capped at dimension d.  A spin W of
        dimension d maps onto the simple S, hence isomorphically, and into T
        injectively, since W meets S + 0 in a proper submodule of W, which is
        zero; so S and T are isomorphic.  Conversely an isomorphism S -> T sends
        k_S to a multiple of k_T, and the spin is its graph, of dimension d.
        This holds at d = 1 too, where the word is found at once.
        """
        cls = self.classes[idx]
        d = cls.dim
        if d != rep.dim:
            return False
        word, lam = self._nullity1_word(idx)
        K_T = left_kernel(_shifted(word, rep, lam), self.ell)
        if K_T.shape[0] != 1:
            return False
        K_S = left_kernel(_shifted(word, cls.rep, lam), self.ell)
        if K_S.shape[0] != 1:
            raise CertificationError("stored nullity-1 word lost nullity 1")
        mats = []
        for i in range(self.ngens):
            M = linalg.zeros((2 * d, 2 * d), self.ell)
            M[:d, :d] = cls.rep.gen_matrix(i)
            M[d:, d:] = rep.gen_matrix(i)
            mats.append(M)
        W = spin(DenseRep(self.ell, mats), [np.concatenate([K_S[0], K_T[0]])], cap_dim=d)
        return W is not None and W.dim == d

    def _nullity1_search(self, idx: int, tag: int, separating: bool) -> tuple[Word, int] | None:
        """The first (word, eigenvalue) of stream `tag` within WORD_BUDGET words
        with nullity 1 on class idx, and if separating also a peak word."""
        cls = self.classes[idx]
        stream = word_stream(self.ngens, self.ell, self.seed, tag)
        for _ in range(WORD_BUDGET):
            word = next(stream)
            for lam in range(self.ell):
                if cls.nullity_of(word, lam, self.ell) == 1 and (
                    not separating or self._peak_ok(word, lam, idx)
                ):
                    return word, lam
        return None

    def _nullity1_word(self, idx: int) -> tuple[Word, int]:
        """The word of class idx, searched for (no separation needed) when it has none."""
        cls = self.classes[idx]
        if cls.word is None:
            cls.word = self._nullity1_search(idx, 0xA7, separating=False)
            if cls.word is None:
                raise BudgetExceededError(
                    f"no nullity-1 word found for a dim-{cls.dim} factor within {WORD_BUDGET} words"
                )
        return cls.word

    # -- peak words ---------------------------------------------------------

    def _peak_ok(self, word: Word, lam: int, idx: int) -> bool:
        """Peak separation: (word - lam) invertible on every other class."""
        for j, other in enumerate(self.classes):
            if j == idx:
                continue
            if other.nullity_of(word, lam, self.ell) != 0:
                return False
        return True

    def ensure_peaks(self) -> None:
        """Make every class word a peak word: nullity 1 on its class and
        invertible on every other.

        A class keeps its word when it separates the final classes.  Each
        other class searches WORD_BUDGET words of one seeded stream, and a
        class still without a peak word after that raises
        BudgetExceededError.
        """
        still = []
        for i, cls in enumerate(self.classes):
            if cls.word is not None and self._peak_ok(*cls.word, i):
                continue
            found = self._nullity1_search(i, 0x9E, separating=True)
            if found is None:
                still.append(i)
            else:
                cls.word = found
        if still:
            dims = [self.classes[i].dim for i in still]
            raise BudgetExceededError(
                f"no separating nullity-1 peak words for factors of dims {dims} within "
                f"{WORD_BUDGET} words each; endomorphism rings may be larger than the prime field"
            )

    # -- socle lines, the lattice and the socle series ------------------------

    def socle_lines(
        self, action, factors: Counter | None = None
    ) -> dict[int, list[tuple[np.ndarray, Submodule]]]:
        """For each class: the simple submodules of `action` it is isomorphic to.

        Returns dict class_idx -> [(seed, line)...], where each line is spun
        from its seed, a kernel vector of the class's peak word.  Every class
        must hold its peak word (`lattice` runs `ensure_peaks` once).  A
        candidate kernel line is valid iff its spin has the class dimension;
        the count of valid lines must be a projective-space count.

        `factors`, when given, are the composition factors of `action`, and
        the kernel of every class absent from them is skipped: it is 0.  A
        peak word theta - lam has nullity 0 on every other class
        (`_peak_ok`), so it is invertible on each composition factor of
        `action`, and hence on `action` itself.
        """
        out = {}
        for idx, cls in enumerate(self.classes):
            if factors is not None and not factors[idx]:
                continue
            word, lam = cls.word
            K = left_kernel(_shifted(word, action, lam), self.ell)
            if K.shape[0] == 0:
                continue
            if K.shape[0] > HOM_MULTIPLICITY_CAP:
                raise BudgetExceededError(
                    f"homogeneous multiplicity {K.shape[0]} exceeds the cap "
                    f"{HOM_MULTIPLICITY_CAP} for factor dim {cls.dim}"
                )
            lines = []
            for coeffs in _projective_reps(K.shape[0], self.ell):
                seedv = (coeffs @ K) % self.ell
                W = spin(action, [seedv], cap_dim=cls.dim)
                if W is not None and W.dim == cls.dim:
                    lines.append((seedv, W))
            if lines:
                _projective_dim(len(lines), self.ell)
                out[idx] = lines
        return out

    def lattice(self, ambient, total: Counter | None = None, split: EigenSplit | None = None) -> Lattice:
        """All submodules, certified.

        Without a split, or when the split has no summands (the residues of
        the operator's eigenvalues mod ell are all equal), the lattice is
        walked from 0: each node's quotient gives its minimal overmodules
        (`socle_lines`), and `_certify_lattice` checks that the nodes are
        closed under sum and intersection.

        `split` is an `EigenSplit` of `ambient` along an operator A
        commuting with the group.  Its summands are taken at the first
        eigenvalue whose residue lam occurs once (the valency's when it does:
        its summand is the all-ones line, the smallest there can be):
        S = rowspace q(A), for q(x) the product of x - mu over the other two,
        and D the other generalised eigenspaces, with e_S = q(A) / q(lam)
        checked to be the projection onto S along D (S e_S = S, D e_S = 0);
        both are closed, as row spaces of polynomials in A.  Checked here
        (`_certify_split`): dim S + dim D = dim M, S and D meet in 0, and S
        is simple (its one simple submodule is S itself).  S has a
        nullity-1 peak word, so it is absolutely irreducible, End(S) = F_ell.
        So for every submodule W both W & S and its projection to S are 0
        or S, and W is (Goursat's lemma) one of
          - U, a submodule of D;
          - S + U;
          - the graph of one of the |End(S)^x| = ell - 1 surjections U' -> S
            with kernel U, for a cover U < U' of D with U'/U isomorphic to S.
        Only the interval [S, M] = {S + U} is walked, and `_certify_lattice`
        runs on it alone.  Each U is (S + U)(1 - e_S) = (S + U) & D, read
        off the RREF of S + U (`Summands.meet_d`).  The diagonals over a
        walked cover S + U < S + U' labelled with S's class
        are U + spin(x + t s), t = 1 .. ell - 1, where x in U' lifts the
        peak-word kernel line of U'/U and s spans it on S.  Each is checked
        to have dimension dim U' and not to contain s, and the ell - 1 of a
        pencil to be distinct (`_check_pencil`): so each is a graph with
        kernel U, and they are all of them.  The covers are the walked
        ones, their images in D, U < S + U, U < graph < S + U', and the
        covers between graphs over U1 < U1' and U2 < U2', which exist only
        where U1 < U2 and U1' < U2' are covers; there each graph of the first
        pencil lies in exactly one of the second when U1' != U2, and in none
        otherwise, which is checked.  Glued nodes count against
        LATTICE_NODE_BUDGET.
        """
        if total is None:
            total = self.chop(ambient, split)
        length = sum(total.values())
        if length > LATTICE_LENGTH_BOUND:
            raise BudgetExceededError(
                f"composition length {length} exceeds LATTICE_LENGTH_BOUND = {LATTICE_LENGTH_BOUND}"
            )
        self.ensure_peaks()  # the classes are final: no node of the walk registers one
        if split is None or split.summands is None:
            nodes = _Nodes()
            self._walk(ambient, nodes, zero_submodule(ambient), Counter(), total)
            lat = nodes.lattice()
            self._certify_lattice(lat, ambient)
            return lat
        return self._glue(ambient, split.summands, total)

    def _walk(
        self, ambient, nodes: _Nodes, bottom: Submodule, factors: Counter, total: Counter, summand=None
    ) -> dict:
        """Add the interval [bottom, ambient] to `nodes`, bottom-up by minimal
        overmodules; `factors` and `total` are the composition factors of
        bottom and of ambient, so those of a node's quotient are
        total - node.factors.  Returns, for each cover labelled with class
        `summand`, (lower ident, upper ident) -> a lift to the ambient of the
        seed of its quotient, the peak-word kernel line.

        A child is node + span(rows), for the rows lifted from a simple
        submodule of the node's quotient, and the node was certified closed
        when it was added (the bottom is: 0 trivially, the summand S by
        `modules.eigen_split`).  So the child is closed iff every generator
        maps those rows into it, and `certify_closed` tests only them."""
        seeds = {}
        head = len(nodes.nodes)
        nodes.add(bottom, factors)
        while head < len(nodes.nodes):
            node = nodes.nodes[head]
            head += 1
            if node.dim == ambient.dim:
                continue
            quot = None if node.dim == 0 else QuotCtx(ambient, node.sub)
            lines_of = self.socle_lines(ambient if quot is None else quot, total - node.factors)
            for cls_idx, lines in lines_of.items():
                for seed, line in lines:
                    rows = line.basis if quot is None else quot.lift_rows(line.basis)
                    basis, piv = linalg.rowspace_sum(node.sub.basis, node.sub.pivots, rows, self.ell)
                    child = Submodule(ambient, basis, piv)
                    child.certify_closed(rows)
                    upper = nodes.add(child, node.factors + Counter({cls_idx: 1}))
                    nodes.edges.append((node.ident, upper.ident, cls_idx))
                    if cls_idx == summand:
                        lift = seed[None] if quot is None else quot.lift_rows(seed[None])
                        seeds[(node.ident, upper.ident)] = lift
        return seeds

    def _certify_split(self, ambient, S: Submodule, D: Submodule) -> tuple[int, np.ndarray]:
        """Check that ambient = S + D with S simple.  Returns S's class and a
        vector s spanning the kernel of the class's peak word on S.

        S and D are not checked to be closed again: `modules.eigen_split`
        forms both as row spaces of polynomials in an operator it checks to
        commute with the generators."""
        if S.dim + D.dim != ambient.dim:
            raise CertificationError(f"summands of dims {S.dim} and {D.dim} do not make {ambient.dim}")
        if linalg.rank(linalg.reduce_rows(S.basis, D.basis, D.pivots, self.ell), self.ell) != S.dim:
            raise CertificationError("the summands meet")
        socle = self.socle_lines(sub_rep(S))
        lines = [pair for found in socle.values() for pair in found]
        if len(lines) != 1 or lines[0][1].dim != S.dim:
            raise CertificationError(f"the dim-{S.dim} summand is not simple")
        (summand,) = socle
        seed = lines[0][0]
        return summand, linalg.matmul(seed[None], S.basis, self.ell)[0]

    def _glue(self, ambient, summands: Summands, total: Counter) -> Lattice:
        """The lattice of ambient = S + D from the walked interval [S, M]
        (the certificate is in `lattice`'s docstring).  Each U = (S + U) & D
        is read off the RREF basis of S + U with no elimination
        (`Summands.meet_d`)."""
        ell = self.ell
        summand, s = self._certify_split(ambient, summands.S, summands.D)
        nodes = _Nodes()
        seeds = self._walk(ambient, nodes, summands.S, Counter({summand: 1}), total, summand)
        interval = nodes.lattice()
        self._certify_lattice(interval, ambient, bottom=summands.S.dim)
        lower: dict[int, LatticeNode] = {}
        for node in interval.nodes:
            U = nodes.add(summands.meet_d(node.sub), node.factors - Counter({summand: 1}), fresh=True)
            lower[node.ident] = U
            nodes.edges.append((U.ident, node.ident, summand))
        for a, b, cls_idx in interval.edges:
            nodes.edges.append((lower[a].ident, lower[b].ident, cls_idx))
        pencils = {}
        for (a, b), lift in seeds.items():
            x = summands.off_summand(lift)[0].astype(np.int64)
            seeds_t = (x + np.arange(1, ell)[:, None] * s.astype(np.int64)) % ell  # x + t s
            pencil = []
            for v in seeds_t:
                W = spin(ambient, [v], cap_dim=lower[b].dim)
                pencil.append(None if W is None else sum_sub(lower[a].sub, W))
            _check_pencil(pencil, lower[b].dim, s, ell)
            pencil = [nodes.add(W, lower[b].factors, fresh=True) for W in pencil]
            for W in pencil:
                nodes.edges.append((lower[a].ident, W.ident, summand))
                nodes.edges.append((W.ident, b, summand))
            pencils[(a, b)] = list(zip(seeds_t, pencil))
        covers = {(a, b): cls_idx for a, b, cls_idx in interval.edges}
        for (a, a1), below in pencils.items():
            for (b, b1), above in pencils.items():
                if (a, b) not in covers or (a1, b1) not in covers:
                    continue
                want = int(a1 != b)
                for v, low in below:
                    hits = [W for _v, W in above if linalg.in_rowspace(v, W.sub.basis, W.sub.pivots, ell)]
                    if len(hits) != want:
                        raise CertificationError(
                            f"a diagonal lies in {len(hits)} diagonals of the pencil above, not {want}"
                        )
                    nodes.edges.extend((low.ident, W.ident, covers[(a, b)]) for W in hits)
        return nodes.lattice()

    def _certify_lattice(self, lat: Lattice, ambient, bottom: int = 0) -> None:
        """Closure under sum and intersection, one rank per incomparable pair.

        `lat` is the lattice of `ambient`, or with `bottom` > 0 the interval
        above a submodule of that dimension.  `below` is the transitive
        closure of the cover edges, and each edge is a genuine inclusion, so
        every node above A and B contains A + B, of dimension
        r = dim A + rank(B mod A): one of dimension r is A + B, and one below
        both of dimension dim A + dim B - r is their intersection.  A
        containment A < B missing from `below` is refused too, as the only
        node of dimension r = dim B above B is B itself.  As
        dim A + rank(B mod A) = dim B + rank(A mod B), the rank is taken of
        whichever basis has fewer rows, reduced modulo the other.
        """
        dims = np.array([n.dim for n in lat.nodes])
        if bottom not in dims or ambient.dim not in dims:
            raise CertificationError(f"lattice missing its bottom (dim {bottom}) or the full module")
        k = len(lat.nodes)
        pos = {n.ident: i for i, n in enumerate(lat.nodes)}
        below = np.eye(k, dtype=bool)
        for a, b, _c in lat.edges:
            below[pos[a], pos[b]] = True
        for _ in range(k):
            new = below | (below @ below)
            if np.array_equal(new, below):
                break
            below = new
        for i in range(k):
            for j in range(i + 1, k):
                if below[i, j] or below[j, i]:
                    continue
                A, B = lat.nodes[i].sub, lat.nodes[j].sub
                big, small = (A, B) if A.dim >= B.dim else (B, A)
                res = linalg.reduce_rows(small.basis, big.basis, big.pivots, self.ell)
                r = big.dim + linalg.rank(res, self.ell)
                meet = A.dim + B.dim - r
                above, under = below[i] & below[j], below[:, i] & below[:, j]
                if r not in dims[above] or meet not in dims[under]:
                    raise CertificationError(
                        "lattice not closed under sum/intersection "
                        f"(dims {A.dim},{B.dim} -> {r},{meet})"
                    )

    def socle_series(self, ambient, lat: Lattice) -> list[Counter]:
        """Ascending socle layers of ambient, as Counters of class indices.

        Read off the certified lattice: soc(M/N) is the sum of the minimal
        overmodules of N, which are the covers of N's node.  The walk starts
        at the zero node and moves to the node of that sum until it reaches
        the whole module.
        """
        bykey = {n.sub.key(): n for n in lat.nodes}
        byident = {n.ident: n for n in lat.nodes}
        covers: dict[int, list[LatticeNode]] = {}
        for a, b, _c in lat.edges:
            covers.setdefault(a, []).append(byident[b])

        def node_of(sub: Submodule) -> LatticeNode:
            node = bykey.get(sub.key())
            if node is None:
                raise CertificationError(
                    f"a dim-{sub.dim} submodule on the socle walk is not a lattice node"
                )
            return node

        layers: list[Counter] = []
        top = node_of(zero_submodule(ambient))
        while top.dim < ambient.dim:
            soc = top.sub
            for cover in covers.get(top.ident, []):
                soc = sum_sub(soc, cover.sub)
            nxt = node_of(soc)
            if nxt is top:
                raise CertificationError(f"a dim-{top.dim} lattice node has no covers")
            layer = nxt.factors - top.factors
            if nxt.dim - top.dim != sum(self.classes[i].dim * t for i, t in layer.items()):
                raise CertificationError("socle layer dimension does not match its factors")
            layers.append(Counter(dict(sorted(layer.items()))))  # class order, as diffs print it
            top = nxt
        return layers


# ---------------------------------------------------------------------------
# helpers


def densify(action) -> DenseRep:
    return DenseRep(action.ell, [action.gen_matrix(i) for i in range(action.ngens)])


def _shifted(word: Word, action, lam: int) -> np.ndarray:
    """theta - lam I, for theta the matrix of `word` on `action`."""
    return linalg.minus_scalar(word.matrix(action), lam, action.ell)


def _check_pencil(pencil: list, dim: int, s: np.ndarray, ell: int) -> None:
    """Raise unless the pencil has ell - 1 distinct diagonals of dimension
    `dim`, none containing s."""
    if len(pencil) != ell - 1 or any(W is None or W.dim != dim for W in pencil):
        raise CertificationError(f"a pencil over a dim-{dim} cover lacks a diagonal of that dimension")
    if any(linalg.in_rowspace(s, W.basis, W.pivots, ell) for W in pencil):
        raise CertificationError("a diagonal contains the summand")
    if len({W.key() for W in pencil}) != ell - 1:
        raise CertificationError("two diagonals of a pencil coincide")


def _projective_dim(count: int, ell: int) -> int:
    """The t with count = (ell^t - 1) / (ell - 1), the number of lines in F_ell^t."""
    t = 0
    while (ell**t - 1) // (ell - 1) < count:
        t += 1
    if (ell**t - 1) // (ell - 1) != count:
        raise CertificationError(f"{count} lines do not form a projective space over F_{ell}")
    return t


def _projective_reps(k: int, ell: int):
    """Canonical representatives of the projective space of F_ell^k (rows)."""
    if k == 0:
        return
    for lead in range(k):
        tail = k - lead - 1
        count = ell**tail
        for code in range(count):
            v = np.zeros(k, dtype=np.int64)
            v[lead] = 1
            rest = code
            for t in range(tail):
                v[lead + 1 + t] = rest % ell
                rest //= ell
            yield v
