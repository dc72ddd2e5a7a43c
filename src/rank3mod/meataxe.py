"""Meataxe-style structure analysis: composition factors, isomorphism testing,
absolute-irreducibility certification, socles, socle series, and full
submodule lattices at desk scale.

The toolbox is the classical one.  Random algebra words (sums of short
products of generators, drawn from a seeded stream) act on sections of the
permutation module, `modules.Section`, by a gather per product term; they are
probed through the annihilator polynomial of a seeded vector (Krylov);
irreducible factors of that polynomial divide the characteristic
polynomial, so kernel vectors of f(theta) are split candidates.  The
factors of an annihilator without roots in F_ell are taken only when a
later word splits the module or the words run out (`Meataxe._chop_one`), so
a simple module never pays for them.  Norton's criterion certifies irreducibility
only at a root lam of the annihilator where theta - lam has nullity 1 (the
kernel vector spins to everything, and so does a transpose-side kernel
vector).  That (theta, lam) is a nullity-1 word, and every factor class is
born with it.  On a simple module it also certifies absolute
irreducibility: any endomorphism preserves the kernel line, so it is scalar
on a generator.  A simple module whose endomorphism ring is larger than
F_ell has no such word, and the chop refuses it.  The same word tests a module T
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
the full submodule lattice.  Where the peak kernel on M/N is one line, M/N
has at most one simple submodule of that class, and when a parent P of N
has a cover C != N of that class, C not in N, it is (N + C)/N: the cover is
joined as the sum of two certified submodules, with no spin.  The lattice's
closure under sum and intersection is certified pair by pair on the rows
a node adds over the largest node below both (`Meataxe._certify_lattice`).
No kernel is taken on a quotient M/N: every
submodule N splits along the Fitting decomposition M = K + I of
theta - lam, so the kernel on M/N is the image of {k in K : k (theta - lam)
in N}.  K = Ker (theta - lam)^(m j) is taken once per lattice, for m the
factor's multiplicity and j the step at which the kernel chain of
theta - lam stops on the factor, and is checked to have dimension m nu, for
nu the generalised nullity there (`Meataxe.socle_lines`).  The socle series
is then read off the certified lattice: soc(M/N) is the sum of the minimal
overmodules of N, merged into N at once.

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
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import BudgetExceededError, CertificationError
from .linalg import krylov_annihilator
from .modules import (
    DenseRep,
    EigenSplit,
    ModCtx,
    QuotCtx,
    Section,
    Submodule,
    Summands,
    quot_rep,
    spin,
    sub_rep,
    submodule_from_rows,
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

    A word acts only on a `Section` of a permutation module, where each
    product term is one permutation: its matrix is a gather per term and one
    product with the section's projection (`Section.image`), plus the scalar
    term on the diagonal; no generator matrices are multiplied.  Matrices
    are cached on the section under the word's terms, so equal words drawn
    by different streams share them; the cache keeps the last four, as a
    search reads a word's matrix only while it tries that word.
    """

    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def matrix(self, action: Section) -> np.ndarray:
        cache = action.word_cache
        hit = cache.get(self)
        if hit is not None:
            return hit
        if len(cache) >= 4:
            cache.pop(next(iter(cache)))
        out = action.image([(c, _composite(action.ctx, seq)) for c, seq in self.terms if seq])
        scalar = sum(c for c, seq in self.terms if not seq)
        if scalar:
            out = linalg.minus_scalar(out, -scalar, action.ell)
        cache[self] = out
        return out

    def shifted_t_times(self, ctx: ModCtx, lam: int, Y: np.ndarray) -> np.ndarray:
        """(theta - lam)^T Y for theta the word on a permutation module, by
        row gathers: P^T Y = Y[pi^-1] for a term's permutation matrix P,
        P[i, pi[i]] = 1.  The sum is taken in the narrowest integer type
        that holds it and reduced once."""
        ell = ctx.ell
        Y = Y.astype(linalg.sum_dtype(len(self.terms) + 1, ell))
        acc = Y * ((-lam) % ell)
        for coeff, seq in self.terms:
            term = Y[np.argsort(_composite(ctx, seq))] if seq else Y.copy()
            term *= coeff
            acc += term
        return linalg.mod_in_place(acc, ell)


def word_stream(ngens: int, ell: int, seed: int, tag: int):
    """Deterministic endless stream of words.

    Several product terms per word: single group elements have structured
    spectra (roots of unity), while sums of a few random products behave like
    uniform algebra elements, which the peak-word searches rely on.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, ell, ngens, tag]))
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
        yield Word(tuple(terms))


def transpose_action(section: Section) -> DenseRep:
    """The dual side of Norton's test: the transposed generator matrices."""
    return DenseRep(section.ell, [section.gen_matrix(i).T for i in range(section.ngens)])


# ---------------------------------------------------------------------------
# annihilator polynomials


def left_kernel(M: np.ndarray, ell: int) -> np.ndarray:
    """{v : v M = 0} as RREF rows."""
    return linalg.nullspace(M.T, ell)


def generalised_kernel(word: Word, lam: int, ctx: ModCtx, e: int) -> tuple[np.ndarray, np.ndarray]:
    """K = Ker (theta - lam)^e on the permutation module `ctx` as RREF rows,
    and Z = K (theta - lam).  The power is formed transposed, from the
    identity by e rounds of row gathers (`Word.shifted_t_times`), with no
    dense product."""
    ell, n = ctx.ell, ctx.dim
    Y = linalg.zeros((n, n), ell)
    Y[np.arange(n), np.arange(n)] = 1
    for _ in range(e):
        Y = word.shifted_t_times(ctx, lam, Y)
    K = linalg.nullspace(Y, ell)  # {x : x Y^T = 0}, and Y^T = (theta - lam)^e
    return K, np.ascontiguousarray(word.shifted_t_times(ctx, lam, K.T).T)


# ---------------------------------------------------------------------------
# factor classes


@dataclass
class FactorClass:
    """A certified-simple class, born with its `word`: the (word, eigenvalue)
    of nullity 1 on it that the chop certified it with, which also makes it
    absolutely irreducible.  `ensure_peaks` makes it a peak word, invertible
    on every other class.  `rep` is a copy of the section it was registered with."""

    rep: Section
    dim: int
    word: tuple[Word, int]
    trivial: bool = False  # all generators act as the identity

    nullities: dict = field(default_factory=dict, repr=False, compare=False)  # (word, lam) -> nullity on rep

    def nullity_of(self, word: Word, lam: int, ell: int) -> int:
        """The nullity of theta - lam on the class, ranked once per (word, lam):
        every class's peak search replays the same stream."""
        key = (word, lam)
        nullity = self.nullities.get(key)
        if nullity is None:
            nullity = self.nullities[key] = self.dim - linalg.rank(_shifted(word, self.rep, lam), ell)
        return nullity

    def kernel_chain(self, ell: int) -> tuple[int, int]:
        """(j, nu) for B = theta - lam, the class's word on its rep: the chain
        Ker B < Ker B^2 < ... stops at step j, and nu = dim Ker B^j is the
        generalised nullity.  The chain starts at dim Ker B = 1, the word's
        nullity on its class."""
        word, lam = self.word
        B = _shifted(word, self.rep, lam)
        power, j, nu = B, 1, 1
        while True:
            power = linalg.matmul(power, B, ell)
            nxt = self.dim - linalg.rank(power, ell)
            if nxt == nu:
                return j, nu
            j, nu = j + 1, nxt


@dataclass
class LatticeNode:
    """A submodule of the lattice, its composition factors, and `gens`:
    rows of M that generate it as a module.  The walk's bottom 0 has none
    and its bottom S one row of S; a child, spun or joined, has its
    parent's gens and the lift of its seed, which spins to the child modulo
    the parent; a glued U = (S + U)(1 - e_S) has the gens of S + U times
    1 - e_S, a module map; and a diagonal U + spin(x + t s) has U's gens
    and x + t s.  `analyze._lattice_checks` tests orthogonality on them."""

    ident: int
    sub: Submodule
    factors: Counter
    gens: np.ndarray

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

    def add(self, sub: Submodule, factors: Counter, gens: np.ndarray, fresh: bool = False) -> LatticeNode:
        """The node of `sub`, added with `gens` unless present (then it
        keeps the gens it was added with); a `fresh` node must not be."""
        key = sub.key()
        node = self.bykey.get(key)
        if node is not None:
            if fresh or node.factors != factors:
                raise CertificationError(f"a dim-{sub.dim} submodule was reached twice")
            return node
        node = LatticeNode(len(self.nodes), sub, factors, gens)
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

    def register(self, rep: Section, word: tuple[Word, int]) -> int:
        """Class index of a certified-simple rep: its class (`_class_of`), or
        else a new class with `word`, of nullity 1 on rep, as its word.  The
        section is kept as a copy, without the matrices formed on it so far.
        A simple module on which the group acts trivially has dimension 1, so
        no larger rep forms its generator matrices for the test."""
        idx = self._class_of(rep)
        if idx is not None:
            return idx
        trivial = rep.dim == 1 and all(rep.gen_matrix(i)[0, 0] == 1 for i in range(rep.ngens))
        rep = Section(rep.ctx, rep.lift, rep.cols, rep.proj)
        self.classes.append(FactorClass(rep, rep.dim, word, trivial))
        return len(self.classes) - 1

    def _class_of(self, rep) -> int | None:
        """The first class of rep's dimension that `is_iso_rep` matches, or
        None.  A match also proves rep simple: `is_iso_rep` is exact for any
        rep of the class's dimension."""
        for idx, cls in enumerate(self.classes):
            if cls.dim == rep.dim and self.is_iso_rep(idx, rep):
                return idx
        return None

    # -- chop ---------------------------------------------------------------

    def chop(self, action, split: EigenSplit | None = None) -> Counter:
        """Composition factors with multiplicities as Counter{class index}.

        Without `split`, `action` is a `Section`, chopped whole.  With
        `split`, an `EigenSplit` of the permutation module `action` along an
        operator A that commutes with it, only the split's pieces (sections
        of it) are chopped, and each factor of a piece counts as often as
        the piece's multiplicity.  This is exact: A commutes with the
        generators (`modules.eigen_split` checks this where it builds the
        split), so Ker B and Im B are submodules for every B = A - mu, and
        M / Ker B is isomorphic to Im B by rank-nullity.  Unrolled along the
        chain E > E B > ... of each generalised eigenspace E, the factors of
        M are those of the pieces Ker(B | E B^j) / Ker(B | E B^(j+1)), each
        counted j + 1 times, and the pieces' dimensions so counted are
        checked to add up to dim M.  The pieces are built by elimination
        only, with no random word.
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
        """Either a class index (certified simple) or a [sub_rep, quot_rep] split.

        Each word theta is probed through the annihilator p of a random v.
        For every factor f of p, u = v (p / f)(theta) is a kernel vector of
        f(theta), non-zero as v, v theta, ..., v theta^(deg p - 1) are
        independent, and its spin is a split candidate (`_split_by`).
        Norton's certificate is taken only at a root lam of p where theta -
        lam has nullity 1: its kernel is then <u>, just spun to everything,
        so a transpose-side kernel vector that spins to everything too
        proves the module simple, and (theta, lam) is the class's word
        (`_norton`).  A 1-dimensional piece is simple, with the first word
        of the stream and its 1 x 1 value as the word.

        The factors of a rootless p serve only as split candidates, so they
        are taken lazily: such a word only records (p, its Krylov rows, the
        rng state after its v), and the loop moves on; v is drawn for every
        word all the same.  The pending words are tried, in stream order, only
        when a later word splits the module or the word budget runs out
        (`_first_split`).  If one of them splits, its split is returned and
        the rng is put back to the state recorded after that word, so the
        result and the stream are those of factoring each rootless p as it
        is drawn: that loop would have stopped at that word, and nothing
        done since is kept.  When a later word certifies the module simple, no spin of
        a non-zero vector is proper, so no pending candidate could have
        split it, and the word is registered with none of them tried.
        """
        n, ell = action.dim, self.ell
        stream = word_stream(self.ngens, ell, self.seed, 0xC4)
        if n == 1:
            word = next(stream)
            return self.register(action, (word, int(word.matrix(action)[0, 0])))
        pending, W = [], None
        for _ in range(WORD_BUDGET):
            word = next(stream)
            theta = word.matrix(action)
            v = self._rng.integers(0, ell, size=n, dtype=np.int64)
            if not v.any():
                v[0] = 1
            p, kry = krylov_annihilator(theta, v, ell)
            # roots give linear factors without a full factorisation
            roots = [lam for lam in range(ell) if poly_eval_int(p, lam, ell) == 0]
            if not roots:
                pending.append((p, kry, self._rng.bit_generator.state))
                continue
            W = self._split_by(action, p, kry, [np.array([(-lam) % ell, 1], dtype=np.int64) for lam in roots])
            if W is not None:
                break
            for lam in roots:
                W = self._norton(action, theta, lam)
                if W is not None:  # theta - lam has nullity 1
                    break
            if W is not None:
                if not W.dim:
                    return self.register(action, (word, lam))
                break
        W = self._first_split(action, pending, W)
        if W is None:
            raise BudgetExceededError(
                f"chop: no word within {WORD_BUDGET} splits a dim-{n} module or has an "
                f"eigenvalue in F_{ell} of nullity 1 on it"
            )
        return [sub_rep(W), quot_rep(W)]

    def _first_split(self, action, pending: list, W: Submodule | None) -> Submodule | None:
        """The split of the first pending rootless word whose factors give
        one, with the rng put back to the state recorded after that word;
        else W, the split found since (None when the words ran out)."""
        for p, kry, state in pending:
            factors = [f for f, _mult in factor_poly(p, self.ell, seed=self.seed)]
            found = self._split_by(action, p, kry, factors)
            if found is not None:
                self._rng.bit_generator.state = state
                return found
        return W

    def _split_by(self, action, p: np.ndarray, kry: np.ndarray, factors: list) -> Submodule | None:
        """The proper submodule spun by the first factor f of p whose
        candidate u = v (p / f)(theta), formed from the Krylov rows, spins
        to one, or None."""
        ell = self.ell
        for f in factors:
            q, rem = poly_divmod(p, f, ell)
            if rem.any():
                raise CertificationError("annihilator factorisation inconsistent")
            W = spin(action, [(q @ kry[: len(q)]) % ell])
            if W.dim < action.dim:
                return W
        return None

    def _norton(self, action, theta: np.ndarray, lam: int) -> Submodule | None:
        """Norton's transpose side at a root lam whose candidate spun to
        everything: None when theta - lam does not have nullity 1, else the
        submodule annihilated by the spin of a transpose-side kernel vector.
        That is 0 exactly when the spin is everything and the module is
        simple, and a proper split otherwise."""
        ell, n = self.ell, action.dim
        Kt = linalg.nullspace(linalg.minus_scalar(theta, lam, ell), ell)
        if Kt.shape[0] != 1:
            return None  # the right kernel's dimension is the nullity
        Wt = spin(transpose_action(action), [Kt[0]])
        if Wt.dim == n:
            return zero_submodule(action)
        U = submodule_from_rows(action, linalg.nullspace(Wt.basis, ell))
        if not 0 < U.dim < n:
            raise CertificationError("transpose-side split produced no submodule")
        return U

    # -- isomorphism testing ----------------------------------------------

    def is_iso_rep(self, idx: int, rep) -> bool:
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
        word, lam = cls.word
        K_T = _kernel_on(word, lam, rep)
        if K_T.shape[0] != 1:
            return False
        K_S = _kernel_on(word, lam, cls.rep)
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

    # -- peak words ---------------------------------------------------------

    def _nullity1_search(self, idx: int) -> tuple[Word, int] | None:
        """The first peak word (word, eigenvalue) for class idx within
        WORD_BUDGET words of the peak stream, eigenvalues in increasing
        order: nullity 1 on the class and 0 on every other.  Each condition
        is tested on the classes in increasing dimension (`_by_dim`), so
        most eigenvalues are refuted on the small classes, with no rank and
        no word matrix on the large ones.  The conditions are pure, so the
        order does not change which (word, eigenvalue) is found first."""
        stream = word_stream(self.ngens, self.ell, self.seed, 0x9E)
        order = self._by_dim()
        for _ in range(WORD_BUDGET):
            word = next(stream)
            for lam in range(self.ell):
                if all(self.classes[j].nullity_of(word, lam, self.ell) == int(j == idx) for j in order):
                    return word, lam
        return None

    def _peak_ok(self, word: Word, lam: int, idx: int) -> bool:
        """Peak separation: (word - lam) invertible on every other class,
        tested on the smallest classes first."""
        return all(
            self.classes[j].nullity_of(word, lam, self.ell) == 0 for j in self._by_dim() if j != idx
        )

    def _by_dim(self) -> list[int]:
        """The class indices in increasing dimension, ties by index."""
        return sorted(range(len(self.classes)), key=lambda j: (self.classes[j].dim, j))

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
            if self._peak_ok(*cls.word, i):
                continue
            found = self._nullity1_search(i)
            if found is None:
                still.append(i)
            else:
                cls.word = found
        if still:
            dims = [self.classes[i].dim for i in still]
            raise BudgetExceededError(
                f"no separating nullity-1 peak words for factors of dims {dims} within "
                f"{WORD_BUDGET} words each"
            )

    # -- socle lines, the lattice and the socle series ------------------------

    def fitting_kernels(
        self, ambient: ModCtx, total: Counter, classes
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """For each class of `classes`, which are among those of `total`, the
        composition factors of the permutation module `ambient`:
        (K, K (theta - lam)), for (theta, lam) the class's peak word and K
        the Fitting kernel of theta - lam on `ambient` (`socle_lines`).

        A class of multiplicity m whose kernel chain on its rep stops at step
        j with generalised nullity nu (`FactorClass.kernel_chain`) has
        K = Ker (theta - lam)^(m j), refused unless dim K = m nu.  The
        generalised nullity adds up along a composition series, and theta -
        lam is invertible on every other class, so dim K = m nu exactly when
        `total` is right.  A composition series of `ambient` cuts K into
        layers, m of them non-zero, each inside the generalised kernel of a
        factor of this class, which (theta - lam)^j kills: so the power m j
        kills K.  nu may exceed 1, as the peak-word search does not ask for
        it to be 1.
        """
        out = {}
        for idx in sorted(classes):
            cls = self.classes[idx]
            j, nu = cls.kernel_chain(self.ell)
            K, Z = generalised_kernel(*cls.word, ambient, total[idx] * j)
            if K.shape[0] != total[idx] * nu:
                raise CertificationError(
                    f"the Fitting kernel of a peak word has dimension {K.shape[0]}, not "
                    f"{total[idx]} x {nu} for a dim-{cls.dim} class"
                )
            out[idx] = (K, Z)
        return out

    def socle_lines(
        self,
        quot: QuotCtx,
        kernels: dict[int, tuple[np.ndarray, np.ndarray]],
        factors: Counter,
        joins: dict[int, list[tuple[Submodule, Submodule]]],
    ) -> dict[int, list[tuple[np.ndarray, Submodule]]]:
        """For each class: the covers C of N in M with C / N isomorphic to
        it, that is N plus the lift of each simple submodule of M / N of
        that class.

        `quot` is a quotient M / N of the permutation module M (a `QuotCtx`;
        N = 0 gives M itself), and `kernels` are M's `fitting_kernels`.
        Returns dict class_idx -> [(seed, cover)...], where each seed is a
        kernel vector of the class's peak word on M / N whose spin is the
        cover's simple submodule.  Every class must hold its peak word
        (`lattice` runs `ensure_peaks` once).  A candidate kernel line is
        valid iff its spin has the class dimension; the count of valid lines
        must be a projective-space count.  A spun line is joined to N by
        `QuotCtx.extend`, which certifies the lifted rows closed.

        `joins` gives, for a class S, pairs (P, C) of covers P < N and
        P < C != N walked so far, with C / P isomorphic to S.  When the
        peak kernel of S on M / N is one line, M / N has at most one simple
        submodule of class S, as each contains a kernel vector.  If C does
        not lie in N, then C & N = P (C / P is simple), so (N + C) / N is
        isomorphic to C / P: N + C is that cover, with no spin, and no
        closure check, as the sum of two certified submodules (`_join`).
        The seed is the kernel line all the same.

        The kernel of A = theta - lam on M / N is read off the Fitting
        decomposition M = K + I of A, with A nilpotent on K and invertible
        on I (Lux, Mueller and Ringe's peak-word condensation, J. Symb.
        Comput. 17, 1994).  N is theta-stable, so N = (N & K) + (N & I); if
        x = k + i has x A in N, then i A lies in N & I, on which A is
        invertible, so i lies in N.  Hence the kernel on M / N is the image
        of {c K : c Z in N}, for K's rows and Z = K A: C = {c : c Z = 0 mod
        N} is the left kernel of an (m nu)-row residue, and the kernel is the
        RREF of C K projected to M / N (`_node_kernel`).  K is
        Ker (theta - lam)^(m j), checked to have dimension m nu, as
        `fitting_kernels` explains.  A subspace has one RREF, so these are
        the rows the left kernel of A on M / N itself would give, with no
        elimination of M / N and no word matrix on it.

        `factors` are the composition factors of M / N, and the kernel of
        every class absent from them is skipped: it is 0.  A peak word
        theta - lam has nullity 0 on every other class (`_peak_ok`), so it is
        invertible on each composition factor of M / N, and hence on M / N
        itself.
        """
        out = {}
        for idx, (K_M, Z) in kernels.items():
            if not factors[idx]:
                continue
            cls = self.classes[idx]
            K = _node_kernel(quot, K_M, Z, self.ell)
            if K.shape[0] == 0:
                continue
            if K.shape[0] > HOM_MULTIPLICITY_CAP:
                raise BudgetExceededError(
                    f"homogeneous multiplicity {K.shape[0]} exceeds the cap "
                    f"{HOM_MULTIPLICITY_CAP} for factor dim {cls.dim}"
                )
            cover = _join(quot, joins.get(idx, []), cls.dim, self.ell) if K.shape[0] == 1 else None
            if cover is not None:
                out[idx] = [(K[0], cover)]
                continue
            lines = []
            for coeffs in _projective_reps(K.shape[0], self.ell):
                seedv = (coeffs @ K) % self.ell
                W = spin(quot, [seedv], cap_dim=cls.dim)
                if W is not None and W.dim == cls.dim:
                    lines.append((seedv, quot.extend(W)))
            if lines:
                _projective_dim(len(lines), self.ell)
                out[idx] = lines
        return out

    def lattice(self, ambient: ModCtx, total: Counter, split: EigenSplit | None = None) -> Lattice:
        """All submodules of the permutation module `ambient`, certified;
        `total` are its composition factors (`chop`).  The peak words'
        Fitting kernels are taken on it (`fitting_kernels`), and its
        quotients, the walk's and the glue's, are only spun and projected.

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
        is simple (the isomorphism test matches it with a class).  S has a
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
        peak-word kernel line of U'/U and s spans it on S; each is spun in
        M / U, capped at dim U' - dim U, and joined to U (`QuotCtx.extend`).
        Each is checked to have dimension dim U' and not to contain s, and
        the ell - 1 of a pencil to be distinct (`_check_pencil`): so each is
        a graph with kernel U, and they are all of them.  The covers are the
        walked ones, their images in D, U < S + U, U < graph < S + U', and
        the covers between graphs over U1 < U1' and U2 < U2', which exist
        only where U1 < U2 and U1' < U2' are covers; there each graph of the
        first pencil lies in exactly one of the second when U1' != U2, and
        in none otherwise, which is checked.  Glued nodes count against
        LATTICE_NODE_BUDGET.
        """
        length = sum(total.values())
        if length > LATTICE_LENGTH_BOUND:
            raise BudgetExceededError(
                f"composition length {length} exceeds LATTICE_LENGTH_BOUND = {LATTICE_LENGTH_BOUND}"
            )
        self.ensure_peaks()  # the classes are final: no node of the walk registers one
        if split is None or split.summands is None:
            nodes = _Nodes()
            bottom = zero_submodule(ambient)
            self._walk(ambient, nodes, bottom, bottom.basis, Counter(), total)
            lat = nodes.lattice()
            self._certify_lattice(lat, ambient)
            return lat
        return self._glue(ambient, split.summands, total)

    def _walk(
        self,
        ambient: ModCtx,
        nodes: _Nodes,
        bottom: Submodule,
        gens: np.ndarray,
        factors: Counter,
        total: Counter,
        summand=None,
    ) -> dict:
        """Add the interval [bottom, ambient] of the permutation module
        `ambient` to `nodes`, bottom-up by minimal overmodules; `gens`
        generate the bottom, and `factors` and `total` are the composition
        factors of bottom and of ambient, so those of a node's quotient are
        total - node.factors.  Returns, for each cover labelled with class
        `summand`, (lower ident, upper ident) -> a lift to the ambient of the
        seed of its quotient, the peak-word kernel line.

        Every node, 0 included, is walked through its quotient M / N
        (`modules.QuotCtx`), and its covers are found by `socle_lines`.  A
        cover is spun as N plus the lift of a simple submodule of M / N
        (`QuotCtx.extend`), certified on the lifted rows alone: N was
        certified closed when it was added (the bottom is: 0 trivially, the
        summand S by `modules.eigen_split`).  Or, where the class's peak
        kernel on M / N is one line, it is joined: N + C for a cover C != N
        of a parent P of N walked so far with the same class, C not in N.
        The nodes are walked in the order they are added, and each node's
        covers are added in `socle_lines`' order, joined or spun."""
        seeds = {}
        kernels = self.fitting_kernels(ambient, total, total - factors)  # the classes the walk meets
        head = len(nodes.nodes)
        nodes.add(bottom, factors, gens)
        parents: dict[int, list[LatticeNode]] = {}
        covers: dict[int, list[tuple[LatticeNode, int]]] = {}
        while head < len(nodes.nodes):
            node = nodes.nodes[head]
            head += 1
            if node.dim == ambient.dim:
                continue
            joins: dict[int, list[tuple[Submodule, Submodule]]] = {}
            for P in parents.get(node.ident, []):
                for C, cls_idx in covers[P.ident]:
                    if C is not node:
                        joins.setdefault(cls_idx, []).append((P.sub, C.sub))
            quot = QuotCtx(ambient, node.sub)
            for cls_idx, found in self.socle_lines(quot, kernels, total - node.factors, joins).items():
                for seed, cover in found:
                    lift = quot.lift_rows(seed[None])
                    upper = nodes.add(cover, node.factors + Counter({cls_idx: 1}), np.vstack([node.gens, lift]))
                    nodes.edges.append((node.ident, upper.ident, cls_idx))
                    parents.setdefault(upper.ident, []).append(node)
                    covers.setdefault(node.ident, []).append((upper, cls_idx))
                    if cls_idx == summand:
                        seeds[(node.ident, upper.ident)] = lift
        return seeds

    def _certify_split(self, ambient: ModCtx, S: Submodule, D: Submodule) -> tuple[int, np.ndarray]:
        """Check that the permutation module ambient = S + D with S simple.
        Returns S's class and a vector s spanning the kernel of the class's
        peak word on S.  S is simple exactly when the isomorphism test
        matches it with a class (`_class_of`), and the class's peak word then
        has nullity 1 on S.

        S and D are not checked to be closed again: `modules.eigen_split`
        forms both as row spaces of polynomials in an operator it checks to
        commute with the generators."""
        if S.dim + D.dim != ambient.dim:
            raise CertificationError(f"summands of dims {S.dim} and {D.dim} do not make {ambient.dim}")
        if linalg.rank(linalg.reduce_rows(S.basis, D.basis, D.pivots, self.ell), self.ell) != S.dim:
            raise CertificationError("the summands meet")
        rep = sub_rep(S)
        summand = self._class_of(rep)
        if summand is None:
            raise CertificationError(f"the dim-{S.dim} summand is not simple")
        word, lam = self.classes[summand].word
        (line,) = _kernel_on(word, lam, rep)  # is_iso_rep has taken it as K_T
        return summand, linalg.matmul(line[None], S.basis, self.ell)[0]

    def _glue(self, ambient: ModCtx, summands: Summands, total: Counter) -> Lattice:
        """The lattice of the permutation module ambient = S + D from the
        walked interval [S, M] (the certificate is in `lattice`'s docstring).
        Each U = (S + U) & D is read off the RREF basis of S + U with no
        elimination (`Summands.meet_d`).  U + spin(x + t s) is U plus the
        lift of the spin of x + t s in M / U, which has dim U fewer
        dimensions, so a cap of dim U' - dim U on that spin refuses exactly
        the diagonals that a cap of dim U' would.  Each diagonal is U merged
        with the lifted rows (`QuotCtx.extend`)."""
        ell = self.ell
        summand, s = self._certify_split(ambient, summands.S, summands.D)
        nodes = _Nodes()
        S = summands.S
        seeds = self._walk(ambient, nodes, S, S.basis[:1], Counter({summand: 1}), total, summand)
        interval = nodes.lattice()
        self._certify_lattice(interval, ambient, bottom=S.dim)
        lower: dict[int, LatticeNode] = {}
        for node in interval.nodes:
            gens = summands.off_summand(node.gens)
            U = nodes.add(summands.meet_d(node.sub), node.factors - Counter({summand: 1}), gens, fresh=True)
            lower[node.ident] = U
            nodes.edges.append((U.ident, node.ident, summand))
        for a, b, cls_idx in interval.edges:
            nodes.edges.append((lower[a].ident, lower[b].ident, cls_idx))
        pencils = {}
        for (a, b), lift in seeds.items():
            x = summands.off_summand(lift)[0].astype(np.int64)
            # x + t s for t = 1 .. ell - 1
            seeds_t = linalg.mod_in_place(x + np.arange(1, ell)[:, None] * s.astype(np.int64), ell)
            quot = QuotCtx(ambient, lower[a].sub)
            pencil = []
            for v in quot.project_rows(seeds_t):
                W = spin(quot, [v], cap_dim=lower[b].dim - lower[a].dim)
                pencil.append(None if W is None else quot.extend(W))
            _check_pencil(pencil, lower[b].dim, s, ell)
            pencil = [
                nodes.add(W, lower[b].factors, np.vstack([lower[a].gens, v[None]]), fresh=True)
                for W, v in zip(pencil, seeds_t)
            ]
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

    def _certify_lattice(self, lat: Lattice, ambient: ModCtx, bottom: int = 0) -> None:
        """Closure under sum and intersection, one rank per incomparable pair.

        `lat` is the lattice of the permutation module `ambient`, or with
        `bottom` > 0 the interval above a submodule of that dimension.
        `below` is the transitive closure of the cover edges, and each edge
        is a genuine inclusion, so every node above A and B contains A + B,
        of dimension r = dim A + rank(B mod A): one of dimension r is A + B,
        and one below both of dimension dim A + dim B - r is their
        intersection.  A containment A < B missing from `below` is refused
        too, as the only node of dimension r = dim B above B is B itself.

        The rank is taken on the rows a node adds over D, the largest node
        below both (`_sum_dim`), or over 0 when no node is below both (an
        edge out of the bottom is missing, and the pair is refused, as no
        node can be their intersection).
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
                above, under = below[i] & below[j], below[:, i] & below[:, j]
                common = np.flatnonzero(under)
                D = lat.nodes[common[dims[common].argmax()]].sub if len(common) else None
                r = _sum_dim(A, B, D, self.ell)
                meet = A.dim + B.dim - r
                if r not in dims[above] or meet not in dims[under]:
                    raise CertificationError(
                        "lattice not closed under sum/intersection "
                        f"(dims {A.dim},{B.dim} -> {r},{meet})"
                    )

    def socle_series(self, ambient: ModCtx, lat: Lattice) -> list[Counter]:
        """Ascending socle layers of the permutation module ambient, as
        Counters of class indices.

        Read off the certified lattice: soc(M/N) is the sum of the minimal
        overmodules of N, which are the covers of N's node.  The walk starts
        at the zero node and moves to the node of that sum until it reaches
        the whole module.  A cover C > N is N plus C's RREF rows at the
        pivots outside N's (N's pivots are among C's, and those rows are
        zero at every other pivot of C), so the sum is N with every cover's
        such rows merged in once (`linalg.rowspace_sum`).
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
            N = top.sub
            new = [_added_rows(C.sub, N) for C in covers.get(top.ident, [])]
            soc = N
            if new:
                soc = Submodule(ambient, *linalg.rowspace_sum(N.basis, N.pivots, np.vstack(new), self.ell))
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


def _composite(ctx: ModCtx, seq) -> np.ndarray:
    """pi with P[i, pi[i]] = 1, for P the product of the generators seq on ctx."""
    pi = np.arange(ctx.dim, dtype=np.int64)
    for gi in seq:
        pi = ctx.perms[gi][pi]
    return pi


def _node_kernel(quot: QuotCtx, K: np.ndarray, Z: np.ndarray, ell: int) -> np.ndarray:
    """The kernel of theta - lam on the quotient M / N, as RREF rows, from K
    the Fitting kernel of theta - lam on M and Z = K (theta - lam)
    (`Meataxe.socle_lines`)."""
    KZ = quot.project_rows(np.vstack([K, Z]))
    C = left_kernel(KZ[len(K) :], ell)
    return linalg.rref(linalg.matmul(C, KZ[: len(K)], ell), ell)[0]


def _added_rows(C: Submodule, P: Submodule | None) -> np.ndarray:
    """C's RREF rows at the pivots outside P's, for a submodule P of C (None:
    0).  P's pivots are among C's, and these rows are zero at every other
    pivot of C, so they are independent modulo P, and C is P plus them."""
    return C.basis if P is None else C.basis[~np.isin(C.pivots, P.pivots)]


def _sum_dim(A: Submodule, B: Submodule, D: Submodule | None, ell: int) -> int:
    """dim (A + B), for submodules A and B over a common submodule D (None:
    0).  As D lies in both, rank(B mod A) is the rank of the rows B adds over
    D reduced modulo A, and dim A + rank(B mod A) = dim B + rank(A mod B):
    so the rows of the side that adds fewer, the smaller, are reduced
    modulo the other."""
    big, small = (A, B) if A.dim >= B.dim else (B, A)
    res = linalg.reduce_rows(_added_rows(small, D), big.basis, big.pivots, ell)
    return big.dim + linalg.rank(res, ell)


def _join(quot: QuotCtx, pairs: list, d: int, ell: int) -> Submodule | None:
    """N + C for the first pair (P, C) of `pairs` with C not in N, for
    N = quot.sub and covers P < N and P < C with C / P simple of dimension
    d; None when every C lies in N.  One row of C outside P decides, as
    C & N is P or C.  Otherwise the rows C adds over P, projected
    to M / N, must have rank d, as (N + C) / N is isomorphic to C / P, and
    their RREF is lifted and merged into N (`linalg.merge_rref`), as
    `QuotCtx.extend` merges a spun line."""
    N = quot.sub
    for P, C in pairs:
        res = quot.project_rows(_added_rows(C, P))
        if not res[0].any():
            continue
        rows, piv = linalg.rref(res, ell)
        if len(piv) != d:
            raise CertificationError(f"a joined cover adds {len(piv)} dimensions, not {d}")
        basis, pivots = linalg.merge_rref(N.basis, N.pivots, quot.lift_rows(rows), quot.nonpivots[piv], ell)
        return Submodule(quot.ctx, basis, pivots)
    return None


def _shifted(word: Word, section: Section, lam: int) -> np.ndarray:
    """theta - lam I, for theta the matrix of `word` on `section`."""
    return linalg.minus_scalar(word.matrix(section), lam, section.ell)


def _kernel_on(word: Word, lam: int, section: Section) -> np.ndarray:
    """The left kernel of theta - lam on `section` as RREF rows, kept on the
    section beside the word's matrices, so that each is taken once."""
    K = section.kernel_cache.get((word, lam))
    if K is None:
        K = section.kernel_cache[(word, lam)] = left_kernel(_shifted(word, section, lam), section.ell)
    return K


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
