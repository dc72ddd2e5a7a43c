"""Linear algebra of the permutation modules F_ell[P] and F_ell[P0].

A module is described by an action object of one of two kinds:
  - a ModCtx, the permutation module M itself, whose generators permute
    coordinates;
  - a Section W1 / W0 of M, for submodules W0 < W1 (`sub_rep`, `QuotCtx`,
    and so every chop piece, chop split and factor class).  It keeps a lift
    of its basis into M and the projection back, so an element of the group
    algebra of M, a sum of permutations, acts on it by gathers and one
    product with the projection (`Section.image`).  Its generator matrices
    are formed only when a spin or the isomorphism test asks for them.  The
    one section without a lift is a quotient M / N of M itself, the lattice
    walk's, which is only spun and projected to; a generator acts on it by
    a gather and a product with a block of N's basis (`QuotCtx.act_rows`),
    and no generator matrix of it is formed.
Words act on sections alone.  A DenseRep, with dense generator matrices, is
only spun: Norton's transpose side and the isomorphism test's S + T.
Vectors are rows and matrices are F_ell matrices in `linalg`'s one storage
dtype; right action throughout.

Submodules are held as reduced-row-echelon bases with sorted pivots, so two
submodules are equal iff their arrays are equal.  spin() closes a seed set
under the generators.  The results of `spin` and `submodule_from_rows` carry
an independent closure certificate (`Submodule.certify_closed`: apply every
generator to every basis row and reduce).  A subspace N + span(rows) over a
submodule N already certified needs it only on the new rows, which
`certify_closed` takes as an argument (the lattice walk's children).  Two
kinds carry none, because they are closed by construction: those of
`eigen_split`, which cuts a module by elimination along an operator that it
checks to commute with the generators, and `Summands.meet_d`, the image of a
submodule under the projection 1 - e_S, a polynomial in that operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CertificationError
from .geometry import PointSets


class ModCtx:
    """Permutation module F_ell[Omega]: generators permute coordinates."""

    def __init__(self, ell: int, perms: list[np.ndarray]):
        self.ell = ell
        self.perms = [np.asarray(p, dtype=np.int64) for p in perms]
        self.invperms = [np.argsort(p) for p in self.perms]
        self.dim = len(perms[0]) if perms else 0

    @property
    def ngens(self) -> int:
        return len(self.perms)

    def act_rows(self, V: np.ndarray, i: int) -> np.ndarray:
        # (v g)[k] = v[g^-1 k]
        return V[:, self.invperms[i]]


class DenseRep:
    """Module with dense generator matrices over F_ell (right action), only spun."""

    def __init__(self, ell: int, mats: list[np.ndarray]):
        self.ell = ell
        self.mats = [linalg.asmat(m, ell) for m in mats]
        self.dim = self.mats[0].shape[0] if self.mats else 0

    @property
    def ngens(self) -> int:
        return len(self.mats)

    def act_rows(self, V: np.ndarray, i: int) -> np.ndarray:
        return linalg.matmul(V, self.mats[i], self.ell)


@dataclass(eq=False)
class Submodule:
    """G-invariant subspace as a canonical RREF basis; `key` identifies it
    (no `==`, which would compare arrays)."""

    action: object
    basis: np.ndarray
    pivots: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def key(self) -> bytes:
        return self.basis.tobytes()

    def certify_closed(self, rows: np.ndarray | None = None) -> None:
        """Raise unless every generator maps `rows` (by default the basis)
        into the span (the whole space is closed, so it returns at once).

        Given rows, the span is taken to be N + span(rows) for a submodule N
        already certified: N g lies in N for every generator g, so the span
        is closed iff every generator maps the rows into it."""
        act = self.action
        if self.dim == act.dim:
            return
        rows = self.basis if rows is None else rows
        for i in range(act.ngens):
            img = act.act_rows(rows, i)
            res = linalg.reduce_rows(img, self.basis, self.pivots, act.ell)
            if res.any():
                raise CertificationError(
                    f"submodule of dim {self.dim} not closed under generator {i}"
                )


def spin(action, seeds, cap_dim: int | None = None) -> Submodule | None:
    """Smallest generator-closed subspace containing the seed vectors.

    Generator images are taken one BFS round at a time: the images of the
    round's block under every generator are stacked and merged into the
    basis as one block (`linalg.rowspace_sum`), and the basis rows at the
    pivots that merge adds are the next round's block.  They and the basis
    before the round span the basis after it, so each round spans what
    merging one generator's images at a time would.  The rounds end when a
    round adds nothing or the basis spans the whole space.  With cap_dim the
    spin aborts (returning None) as soon as a round's dimension exceeds the
    cap; the dimensions only grow, so that is exactly when the closure's
    does.
    """
    ell = action.ell
    basis, pivots = linalg.rref(np.array(list(seeds)).reshape(-1, action.dim), ell)
    if cap_dim is not None and len(pivots) > cap_dim:
        return None
    block = basis
    while len(block) and len(pivots) < action.dim:
        images = np.vstack([action.act_rows(block, i) for i in range(action.ngens)])
        basis, merged = linalg.rowspace_sum(basis, pivots, images, ell)
        new = np.ones(len(merged), dtype=bool)
        new[np.searchsorted(merged, pivots)] = False  # rows at old pivots were there before
        block = basis[new]
        pivots = merged
        if cap_dim is not None and len(pivots) > cap_dim:
            return None
    sub = Submodule(action, basis, pivots)
    sub.certify_closed()
    return sub


def submodule_from_rows(action, rows: np.ndarray) -> Submodule:
    basis, piv = linalg.rref(rows, action.ell)
    sub = Submodule(action, basis, piv)
    sub.certify_closed()
    return sub


def zero_submodule(action) -> Submodule:
    return Submodule(
        action, linalg.zeros((0, action.dim), action.ell), np.array([], dtype=np.int64)
    )


def whole_submodule(action) -> Submodule:
    """The whole module, with the identity as its basis."""
    n = action.dim
    return Submodule(action, linalg.asmat(np.eye(n, dtype=np.int64), action.ell), np.arange(n))


def sum_sub(A: Submodule, B: Submodule) -> Submodule:
    basis, piv = linalg.rowspace_sum(A.basis, A.pivots, B.basis, A.action.ell)
    return Submodule(A.action, basis, piv)


def _pivots_of(R: np.ndarray) -> np.ndarray:
    """The leading column of each row of R, which has no zero row."""
    return (R != 0).argmax(axis=1).astype(np.int64)


class Section:
    """The section W1 / W0 of the permutation module M (a ModCtx), for
    submodules W0 < W1 of M, in the coordinates that `sub_rep` and `QuotCtx`
    give it.  Every chop piece, chop split and factor class is one, and it is
    the one kind of module a word acts on.

    It keeps its link to M.  The rows of `lift` (d x n) are representatives
    in W1 of its basis vectors, and x in W1 maps back to x[:, cols] proj
    (proj None: the identity), so lift[:, cols] proj = I.  `lift` is None
    only for a quotient of M itself, the lattice walk's M / N, which is only
    spun and projected to: its representatives are the unit rows at
    `unit_rows`, and cols is all of M.  An element theta of the group algebra
    of M acts on the section as lift theta[:, cols] proj (`image`).  The
    generator matrices are formed from it when first asked for
    (`gen_matrix`), for a spin or the isomorphism test; a quotient of M
    itself forms none, as its spins act by `QuotCtx.act_rows`.  `word_cache` and
    `kernel_cache` keep the word matrices and kernels `meataxe` takes on it.
    """

    def __init__(self, ctx: ModCtx, lift, unit_rows, cols: np.ndarray, proj: np.ndarray | None):
        self.ctx = ctx
        self.ell = ctx.ell
        self.lift = lift
        self.unit_rows = unit_rows
        self.cols = cols
        self.proj = proj
        self.dim = len(unit_rows) if lift is None else lift.shape[0]
        self._gens: dict[int, np.ndarray] = {}
        self.word_cache: dict = {}
        self.kernel_cache: dict = {}

    @property
    def ngens(self) -> int:
        return self.ctx.ngens

    def act_rows(self, V: np.ndarray, i: int) -> np.ndarray:
        return linalg.matmul(V, self.gen_matrix(i), self.ell)

    def gen_matrix(self, i: int) -> np.ndarray:
        g = self._gens.get(i)
        if g is None:
            g = self._gens[i] = self.image([(1, self.ctx.perms[i])])
        return g

    def in_module(self, V: np.ndarray) -> np.ndarray:
        """Rows of the section lifted to M: V lift."""
        return linalg.matmul(V, self.lift, self.ell)

    def image(self, terms) -> np.ndarray:
        """The matrix of sum c g on the section, over terms (c, g) with g a
        permutation pi of M (its matrix P has P[i, pi[i]] = 1).

        lift P[:, cols] is the column gather of the lift at pi^-1[cols], and
        for unit rows lift P proj is the row gather of proj at
        pi[unit_rows]; the gathers are summed in the narrowest integer type
        that holds the sum, and reduced once before the one product with
        proj."""
        ell = self.ell
        acc_dtype = linalg.sum_dtype(len(terms), ell)
        acc = np.zeros((self.dim, self.dim if self.lift is None else len(self.cols)), dtype=acc_dtype)
        for c, pi in terms:
            if self.lift is None:
                part = self.proj[pi[self.unit_rows]]
            else:
                inv = np.empty_like(pi)
                inv[pi] = np.arange(len(pi))
                part = self.lift[:, inv[self.cols]]
            acc += np.multiply(part, c, dtype=acc_dtype)
        out = linalg.asmat(acc, ell)
        if self.lift is None or self.proj is None:
            return out
        return linalg.matmul(out, self.proj, ell)


class QuotCtx(Section):
    """Quotient of an action by a Submodule, coordinatised on non-pivot columns.

    The reduce-then-restrict map is the matrix P with unit rows at non-pivot
    indices and -basis[i, nonpivots] at pivot index i.  `lift_rows` and
    `project_rows` map between the quotient and the action it quotients; as a
    `Section` of M its representatives are those of the action's coordinates
    at the non-pivots, and its map back is the action's followed by P.  The
    action is M itself (the lattice walk's quotients, with no lift) or a
    section with a lift (the chop's).  A quotient of M itself acts on rows
    without a generator matrix (`act_rows`), keeping per generator only the
    index arrays and the block of N's basis that action reads.
    """

    def __init__(self, action, sub: Submodule):
        self.sub = sub
        self._moves: dict[int, tuple] = {}  # generator -> `_moves_of`, on a quotient of M
        ell = action.ell
        n = action.dim
        nonpiv = np.setdiff1d(np.arange(n), sub.pivots)
        self.nonpivots = nonpiv
        P = linalg.zeros((n, len(nonpiv)), ell)
        P[nonpiv, np.arange(len(nonpiv))] = 1
        if sub.dim:
            P[sub.pivots] = (-sub.basis[:, nonpiv]) % ell
        if not isinstance(action, Section):
            super().__init__(action, None, nonpiv, np.arange(n), P)
            return
        proj = P if action.proj is None else linalg.matmul(action.proj, P, ell)
        super().__init__(action.ctx, action.lift[nonpiv], None, action.cols, proj)

    def act_rows(self, V: np.ndarray, i: int) -> np.ndarray:
        """V g on the quotient.  On a quotient M / N of M itself this forms
        no generator matrix.  For J the non-pivots of N, a row v of the
        quotient lifts to x with x[J] = v and 0 at N's pivots, and
        (x g)[c] = x[pi^-1 c] for pi = g's permutation, so x g is a column
        gather of v that reads 0 from a pivot.  Its residue modulo N at J is
        (x g)[J] - (x g)[H] B[H][:, J], for B N's basis and H the pivots whose
        source pi^-1 p is in J (the other pivot columns of x g are 0): a
        gather and a product of |H| x |J|, not of |J| x |J|."""
        if self.lift is not None:
            return super().act_rows(V, i)
        moves = self._moves.get(i)
        if moves is None:
            moves = self._moves[i] = self._moves_of(i)
        dst, src, hsrc, block = moves
        out = linalg.zeros((V.shape[0], len(self.nonpivots)), self.ell)
        out[:, dst] = V[:, src]
        if not len(hsrc):
            return out
        return (out - linalg.matmul(V[:, hsrc], block, self.ell)) % self.ell

    def _moves_of(self, i: int) -> tuple:
        """For generator i on M / N: the quotient columns `dst` that read a
        column `src` of v, the columns `hsrc` of v that land on N's pivots
        H, and B[H][:, J]."""
        sub, J = self.sub, self.nonpivots
        pos = np.full(self.ctx.dim, -1, dtype=np.int64)
        pos[J] = np.arange(len(J))
        inv = self.ctx.invperms[i]
        src = pos[inv[J]]
        dst = np.flatnonzero(src >= 0)
        hsrc = pos[inv[sub.pivots]]
        H = np.flatnonzero(hsrc >= 0)
        return dst, src[dst], hsrc[H], sub.basis[H][:, J]

    def lift_rows(self, V: np.ndarray) -> np.ndarray:
        out = linalg.zeros((V.shape[0], self.sub.action.dim), self.ell)
        out[:, self.nonpivots] = V
        return out

    def project_rows(self, V: np.ndarray) -> np.ndarray:
        """Rows of the ambient mapped to the quotient, V P: their residues
        modulo the submodule, read at the non-pivot columns."""
        sub = self.sub
        return linalg.reduce_rows(V, sub.basis, sub.pivots, self.ell)[:, self.nonpivots]


def sub_rep(sub: Submodule) -> Section:
    """The Submodule as a module in its own right, in basis coordinates: the
    section whose representatives are its basis rows, lifted to M."""
    act = sub.action
    if not isinstance(act, Section):
        return Section(act, sub.basis, None, sub.pivots, None)
    lift = act.in_module(sub.basis)
    if act.proj is None:
        return Section(act.ctx, lift, None, act.cols[sub.pivots], None)
    return Section(act.ctx, lift, None, act.cols, act.proj[:, sub.pivots])


# ---------------------------------------------------------------------------
# the split along an operator that commutes with the group


@dataclass
class Summands:
    """M = S + D as spaces, with e_S = proj @ S.basis the projection onto S along D."""

    S: Submodule
    D: Submodule
    proj: np.ndarray

    def off_summand(self, rows: np.ndarray) -> np.ndarray:
        """rows (1 - e_S): their components in D."""
        ell = self.S.action.ell
        return (rows - linalg.matmul(linalg.matmul(rows, self.proj, ell), self.S.basis, ell)) % ell

    def meet_d(self, W: Submodule) -> Submodule:
        """W & D, for a submodule W that contains S, read off W's RREF basis
        with no elimination.

        x e_S = (x proj) S.basis, so the columns of `proj` are functionals
        f_j whose common kernel is D, and W & D is their common kernel on W.
        For each f_j in turn, the last row of the basis on which f_j is
        non-zero is cleared from the rows above it (those below are zero
        there) and dropped.  The rows above lead left of the dropped row's
        pivot, and every row is zero at the pivots of the others, so the
        rows that stay are in RREF on their own pivots.  They lie in W & D,
        and there are dim W - dim S of them, which is dim W & D, as
        W = S + (W & D).  So they are the one RREF basis of W & D, the rows
        `linalg.rref` gives of W (1 - e_S).  A functional that vanishes on
        every row left refuses W: it cannot contain S.

        The basis and the functionals' values on it are updated together,
        one pass for each functional (`linalg.clear_column`).
        """
        ell = self.S.action.ell
        n = W.basis.shape[1]
        # the basis rows, followed by the values of the functionals on them
        R = np.hstack([W.basis, linalg.matmul(W.basis, self.proj, ell)])
        keep = np.ones(len(R), dtype=bool)
        for j in range(n, R.shape[1]):
            live = np.flatnonzero(keep & (R[:, j] != 0))
            if len(live) == 0:
                raise CertificationError(f"a dim-{W.dim} submodule does not contain the summand")
            i, above = live[-1], live[:-1]
            R[above] = linalg.clear_column(R, above, i, j, ell)
            keep[i] = False
        return Submodule(W.action, R[keep, :n], W.pivots[keep])


@dataclass
class EigenSplit:
    """A module cut along an operator that commutes with it (`eigen_split`).

    `pieces` are (module, multiplicity) pairs: the composition factors of the
    pieces, each counted that many times, are those of the whole module.
    `summands` is M = S + D when some residue of the eigenvalues occurs once,
    with S its eigenspace and D the other generalised eigenspaces, else None.
    """

    pieces: list[tuple[Section, int]]
    summands: Summands | None


def eigen_split(ctx: ModCtx, operator: np.ndarray, eigenvalues) -> EigenSplit:
    """The pieces of the permutation module `ctx` along an operator A that
    commutes with it, and its summands S + D (see `EigenSplit`), by
    elimination alone.  Every piece is a `Section` of ctx.

    `eigenvalues` are integers e with prod (A - e) = 0, repeated as in that
    product (for the adjacency operator: a, -rho0 and -rho1); the checks
    below refuse any list on which the split would not be exact.  For each of
    their residues mu mod ell, E = rowspace q(A), with q the product of
    x - e over the eigenvalues e of the other residues, and B = A - mu.
    The pieces of E are K_j / K_(j+1) with multiplicity j + 1, for the
    kernels K_j = Ker(B | E B^j) of B on the chain E > E B > E B^2 > ...,
    which stops where E B^t = 0 (raises where it stalls: B is then not
    nilpotent on E, and the eigenvalues are not the operator's).

    Why their factors are those of M:
      - A commutes with every generator (checked here; raises otherwise),
        so every polynomial in A is a module endomorphism, and E, its images
        under powers of B and their kernels are submodules;
      - B maps a submodule X onto XB with kernel Ker(B | X), so
        X / Ker(B | X) is isomorphic to XB (rank-nullity) and
        factors(X) = factors(Ker(B | X)) + factors(XB).  Ker(B | XB) is
        Ker(B | X) & XB, so K_(j+1) lies in K_j, and unrolled from X = E
        this counts each K_j / K_(j+1) j + 1 times;
      - E B^t = 0 puts E inside the generalised mu-eigenspace of A, and
        those of distinct residues are independent; the pieces' dimensions
        with multiplicity add up to dim M (checked), so M is the direct sum
        of the E's.
    Ker(B | X) lies in Ker B, computed once on M; it is all of Ker B when the
    dimensions say so (dim X - dim XB = dim Ker B), and X & Ker B otherwise.

    The summands are taken at the first eigenvalue whose residue lam occurs
    once: S is its E, D the sum of the others, and e_S = q(A) / q(lam) =
    C S.basis with C the columns of q(A) / q(lam) at S's pivots; raises
    unless S e_S = S and D e_S = 0.
    """
    ell = ctx.ell
    _check_commutes(ctx, operator)
    residues = [e % ell for e in eigenvalues]
    lam = next((r for r in residues if residues.count(r) == 1), None)
    pieces, others = [], []
    for mu in dict.fromkeys(residues):
        Q = None
        for e in residues:
            if e != mu:
                shifted = linalg.minus_scalar(operator, e, ell)
                Q = shifted if Q is None else linalg.matmul(Q, shifted, ell)
        E = whole_submodule(ctx) if Q is None else Submodule(ctx, *linalg.rref(Q, ell))
        pieces += _kernel_pieces(ctx, E, linalg.minus_scalar(operator, mu, ell))
        if mu == lam:
            S, C = E, Q[:, E.pivots]
        else:
            others.append(E)
    if sum(piece.dim * mult for piece, mult in pieces) != ctx.dim:
        raise CertificationError(
            f"the operator's generalised eigenspaces do not make up all {ctx.dim} dimensions"
        )
    if lam is None:
        return EigenSplit(pieces, None)
    D = others[0] if len(others) == 1 else sum_sub(*others)
    q_lam = 1
    for e in residues:
        if e != lam:
            q_lam = q_lam * (lam - e) % ell
    proj = linalg.asmat(C.astype(np.int64) * pow(q_lam, -1, ell), ell)
    if not (
        np.array_equal(linalg.matmul(S.basis, proj, ell), np.eye(S.dim))
        and not linalg.matmul(D.basis, proj, ell).any()
    ):
        raise CertificationError("q(A) / q(lam) is not the projection onto S along D")
    return EigenSplit(pieces, Summands(S, D, proj))


def _check_commutes(ctx: ModCtx, operator: np.ndarray) -> None:
    """Raise unless the operator A commutes with every generator p of ctx: A[p][:, p] = A."""
    for i, p in enumerate(ctx.perms):
        if not np.array_equal(operator[np.ix_(p, p)], operator):
            raise CertificationError(f"the operator does not commute with generator {i}")


def _kernel_pieces(ctx: ModCtx, E: Submodule, B: np.ndarray) -> list[tuple[Section, int]]:
    """(K_j / K_(j+1), j + 1) for K_j = Ker(B | E B^j), the nonzero ones."""
    ell, n = ctx.ell, ctx.dim
    kernels = []
    X, ker = E, None
    while True:
        Y = B if X.dim == n else linalg.matmul(X.basis, B, ell)
        if not Y.any():
            kernels.append(X)
            break
        XB = Submodule(ctx, *linalg.rref(Y, ell))
        if XB.dim == X.dim:
            raise CertificationError(
                f"B is invertible on a dim-{X.dim} piece: the eigenvalues are not the operator's"
            )
        if ker is None:
            K = linalg.nullspace(B.T, ell)  # {x : x B = 0}, in RREF
            ker = Submodule(ctx, K, _pivots_of(K))
        if X.dim - XB.dim == ker.dim:
            kernels.append(ker)
        else:
            meet = linalg.rowspace_intersect(ker.basis, ker.pivots, X.basis, ell)
            kernels.append(Submodule(ctx, *meet))
        X = XB
    pieces = []
    for j, K in enumerate(kernels):
        below = kernels[j + 1] if j + 1 < len(kernels) else zero_submodule(ctx)
        if K.dim == below.dim:
            continue
        rep = sub_rep(K)
        if below.dim:
            rep = QuotCtx(rep, Submodule(rep, *linalg.rref(below.basis[:, K.pivots], ell)))
        pieces.append((rep, j + 1))
    return pieces


class PermModule:
    """The pair F_ell[P], F_ell[P0] with the graph operators between them.

    adj is the Delta-adjacency on P (per-family convention fixed upstream in
    geometry), cross the P x P0 orthogonality.  The adjacency operator sends
    a point to the sum of its Delta-neighbours; its matrix is symmetric.
    """

    def __init__(self, points: PointSets, ell: int, perms_P, perms_P0):
        self.ell = ell
        self.ctxP = ModCtx(ell, perms_P)
        self.ctxP0 = ModCtx(ell, perms_P0)
        self._adj = linalg.asmat(points.adj, ell)
        self._cross = linalg.asmat(points.cross, ell)

    def delta_sum(self, i: int) -> np.ndarray:
        """Characteristic vector of Delta(alpha_i)."""
        return self._adj[i].copy()

    def v_c(self, c: int, i: int) -> np.ndarray:
        v = self.delta_sum(i)
        v[i] = (int(v[i]) + c) % self.ell
        return v

    def graph_seeds(self, c: int, base: int = 0) -> np.ndarray:
        """Rows v_{c,base} - v_{c,beta} whose spin is the graph submodule
        U'_c, the span of all differences v_{c,alpha} - v_{c,beta}.

        One beta adjacent to base and one not: their G-orbits cover all
        pair types, and connectivity of the Delta-graph then spans every
        difference, so the spin of these seeds is the full difference
        submodule.
        """
        v0 = self.v_c(c, base)
        row = self._adj[base]
        betas = [int(np.nonzero(row)[0][0])]
        nonadj = np.nonzero((row == 0) & (np.arange(len(row)) != base))[0]
        if len(nonadj):
            betas.append(int(nonadj[0]))
        return np.array([(v0 - self.v_c(c, b)) % self.ell for b in betas])
