"""Linear algebra of the permutation modules F_ell[P] and F_ell[P0].

A module is described by an action object: either a ModCtx (group generators
act as coordinate permutations, the ambient permutation module) or a DenseRep
(generators are dense matrices, used for submodules and quotients).  Vectors
are numpy int64 rows; right action throughout.

Submodules are held as reduced-row-echelon bases with sorted pivots, so two
submodules are equal iff their arrays are equal.  spin() closes a seed set
under the generators; every Submodule built here also carries an independent
closure certificate (apply every generator to every basis row and reduce).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CertificationError
from .fields import storage_dtype
from .geometry import PointSets


class ModCtx:
    """Permutation module F_ell[Omega]: generators permute coordinates."""

    def __init__(self, ell: int, perms: list[np.ndarray], tag: str):
        self.ell = ell
        self.perms = [np.asarray(p, dtype=np.int64) for p in perms]
        self.invperms = [np.argsort(p) for p in self.perms]
        self.dim = len(perms[0]) if perms else 0
        self.tag = tag

    @property
    def ngens(self) -> int:
        return len(self.perms)

    def act_rows(self, V: np.ndarray, i: int) -> np.ndarray:
        # (v g)[k] = v[g^-1 k]
        return V[:, self.invperms[i]]

    def gen_matrix(self, i: int) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=np.int64)
        M[np.arange(self.dim), self.perms[i]] = 1
        return M


class DenseRep:
    """Module with dense generator matrices over F_ell (right action)."""

    def __init__(self, ell: int, mats: list[np.ndarray]):
        self.ell = ell
        self.mats = [np.asarray(m, dtype=storage_dtype(ell)) for m in mats]
        self.dim = self.mats[0].shape[0] if self.mats else 0

    @property
    def ngens(self) -> int:
        return len(self.mats)

    def act_rows(self, V: np.ndarray, i: int) -> np.ndarray:
        return linalg.matmul(V, self.mats[i], self.ell)

    def gen_matrix(self, i: int) -> np.ndarray:
        return self.mats[i].astype(np.int64)


@dataclass
class Submodule:
    """G-invariant subspace as a canonical RREF basis."""

    action: object
    basis: np.ndarray
    pivots: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def key(self) -> bytes:
        return self.basis.astype(storage_dtype(self.action.ell)).tobytes()

    def contains_vec(self, v: np.ndarray) -> bool:
        return linalg.in_rowspace(v, self.basis, self.pivots, self.action.ell)

    def contains(self, other: "Submodule") -> bool:
        if other.dim > self.dim:
            return False
        return linalg.in_rowspace(other.basis, self.basis, self.pivots, self.action.ell)

    def __eq__(self, other) -> bool:
        return (
            self.dim == other.dim
            and np.array_equal(self.pivots, other.pivots)
            and np.array_equal(self.basis, other.basis)
        )

    def certify_closed(self) -> None:
        act = self.action
        for i in range(act.ngens):
            img = act.act_rows(self.basis, i)
            res = linalg.reduce_rows(img, self.basis, self.pivots, act.ell)
            if res.any():
                raise CertificationError(
                    f"submodule of dim {self.dim} not closed under generator {i}"
                )


class _EchelonAccumulator:
    """Mutually reduced row store used by spin(); canonicalised at the end.

    Every stored row is zero in the pivot columns of the others, so a block
    of vectors is reduced against the store with one product.
    """

    def __init__(self, dim: int, ell: int):
        self.ell = ell
        self.rows = np.zeros((0, dim), dtype=np.int64)
        self.pivs = np.zeros(0, dtype=np.int64)

    def insert(self, V: np.ndarray) -> np.ndarray:
        """Add the span of V's rows; returns the new rows (none when nothing is new)."""
        res = linalg.reduce_rows(V, self.rows, self.pivs, self.ell)
        res = res[res.any(axis=1)]
        if len(res) == 0:
            return res
        new, pn = linalg.rref(res, self.ell)
        # residues are zero in the stored pivot columns; clear the new ones
        self.rows = np.vstack([linalg.reduce_rows(self.rows, new, pn, self.ell), new])
        self.pivs = np.concatenate([self.pivs, pn])
        return new

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.pivs, kind="stable")
        return self.rows[order], self.pivs[order]


def spin(action, seeds, certify: bool = True, cap_dim: int | None = None) -> Submodule | None:
    """Smallest generator-closed subspace containing the seed vectors.

    Generator images are taken one BFS round at a time, and each generator's
    images are inserted as one block.  With cap_dim the spin aborts
    (returning None) as soon as the dimension exceeds the cap.
    """
    acc = _EchelonAccumulator(action.dim, action.ell)
    block = acc.insert(np.array(list(seeds), dtype=np.int64).reshape(-1, action.dim))
    while len(block):
        if cap_dim is not None and len(acc.pivs) > cap_dim:
            return None
        found = []
        for i in range(action.ngens):
            found.append(acc.insert(action.act_rows(block, i)))
            if cap_dim is not None and len(acc.pivs) > cap_dim:
                return None
        block = np.vstack(found)
    basis, pivots = acc.finish()
    sub = Submodule(action, basis, pivots)
    if certify:
        sub.certify_closed()
    return sub


def submodule_from_rows(action, rows: np.ndarray, certify: bool = True) -> Submodule:
    basis, piv = linalg.rref(rows, action.ell)
    sub = Submodule(action, basis, piv)
    if certify:
        sub.certify_closed()
    return sub


def zero_submodule(action) -> Submodule:
    return Submodule(
        action, np.zeros((0, action.dim), dtype=np.int64), np.array([], dtype=np.int64)
    )


def full_submodule(action) -> Submodule:
    return Submodule(
        action, np.eye(action.dim, dtype=np.int64), np.arange(action.dim, dtype=np.int64)
    )


def sum_sub(A: Submodule, B: Submodule) -> Submodule:
    """A + B, reusing A's echelon form: only B's residues need elimination."""
    ell = A.action.ell
    if A.dim == 0:
        return Submodule(A.action, B.basis.copy(), B.pivots.copy())
    res = linalg.reduce_rows(B.basis, A.basis, A.pivots, ell)
    res = res[res.any(axis=1)]
    if res.shape[0] == 0:
        return Submodule(A.action, A.basis.copy(), A.pivots.copy())
    Rn, pn = linalg.rref(res, ell)
    top = linalg.reduce_rows(A.basis, Rn, pn, ell)
    stacked = np.vstack([top, Rn])
    piv = np.concatenate([A.pivots, pn])
    order = np.argsort(piv, kind="stable")
    return Submodule(A.action, stacked[order], piv[order])


def intersect_sub(A: Submodule, B: Submodule) -> Submodule:
    """A intersect B: combinations of B's rows whose A-residue vanishes."""
    ell = A.action.ell
    if A.dim == 0 or B.dim == 0:
        return zero_submodule(A.action)
    res = linalg.reduce_rows(B.basis, A.basis, A.pivots, ell)
    combos = linalg.nullspace(res.T, ell)  # c with c . res = 0
    if combos.shape[0] == 0:
        return zero_submodule(A.action)
    rows = linalg.matmul(combos, B.basis, ell)
    basis, piv = linalg.rref(rows, ell)
    return Submodule(A.action, basis, piv)


def perp(sub: Submodule, certify: bool = True) -> Submodule:
    """Orthogonal complement under the coordinatewise inner product."""
    if sub.dim == 0:
        return full_submodule(sub.action)
    basis = linalg.nullspace(sub.basis, sub.action.ell)
    out = Submodule(sub.action, basis, _pivots_of(basis))
    if certify:
        out.certify_closed()
    return out


def _pivots_of(R: np.ndarray) -> np.ndarray:
    return np.array([int(np.nonzero(r)[0][0]) for r in R], dtype=np.int64)


def inner(u: np.ndarray, v: np.ndarray, ell: int) -> int:
    return int(np.dot(u.astype(np.int64), v.astype(np.int64)) % ell)


class QuotCtx(DenseRep):
    """Quotient of an action by a Submodule, coordinatised on non-pivot columns.

    The reduce-then-restrict map is the matrix P with unit rows at non-pivot
    indices and -basis[i, nonpivots] at pivot index i; the quotient action of
    a generator is then (rows of the generator at non-pivot indices) composed
    with P, which for a permutation ambient is a pure row gather.
    """

    def __init__(self, action, sub: Submodule):
        self.ambient = action
        self.sub = sub
        ell = action.ell
        n = action.dim
        nonpiv = np.setdiff1d(np.arange(n), sub.pivots)
        self.nonpivots = nonpiv
        P = np.zeros((n, len(nonpiv)), dtype=np.int64)
        P[nonpiv, np.arange(len(nonpiv))] = 1
        if sub.dim:
            P[sub.pivots] = (-sub.basis[:, nonpiv]) % ell
        self._proj = P
        mats = []
        if isinstance(action, ModCtx):
            for i in range(action.ngens):
                mats.append(P[action.perms[i]][nonpiv])
        else:
            for i in range(action.ngens):
                rows = action.act_rows(_unit_rows(nonpiv, n), i)
                mats.append(linalg.matmul(rows, P, ell))
        super().__init__(ell, mats)

    def project_rows(self, V: np.ndarray) -> np.ndarray:
        return linalg.matmul(V % self.ambient.ell, self._proj, self.ambient.ell)

    def lift_rows(self, V: np.ndarray) -> np.ndarray:
        out = np.zeros((V.shape[0], self.ambient.dim), dtype=np.int64)
        out[:, self.nonpivots] = V % self.ambient.ell
        return out


def _unit_rows(indices: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((len(indices), n), dtype=np.int64)
    out[np.arange(len(indices)), indices] = 1
    return out


def sub_rep(sub: Submodule) -> DenseRep:
    """The Submodule as a module in its own right, in basis coordinates."""
    act = sub.action
    mats = []
    for i in range(act.ngens):
        img = act.act_rows(sub.basis, i)
        mats.append(img[:, sub.pivots])
    return DenseRep(act.ell, mats)


class PermModule:
    """The pair F_ell[P], F_ell[P0] with the graph operators between them.

    adj is the Delta-adjacency on P (per-family convention fixed upstream in
    geometry), cross the P x P0 orthogonality.  The adjacency operator sends
    a point to the sum of its Delta-neighbours; its matrix is symmetric.
    """

    def __init__(self, points: PointSets, ell: int, perms_P, perms_P0):
        self.points = points
        self.ell = ell
        self.ctxP = ModCtx(ell, perms_P, "P")
        self.ctxP0 = ModCtx(ell, perms_P0, "P0")
        self._adj = points.adj.astype(np.int64)
        self._cross = points.cross.astype(np.int64)

    def delta_sum(self, i: int) -> np.ndarray:
        """Characteristic vector of Delta(alpha_i)."""
        return self._adj[i].copy()

    def apply_T(self, v: np.ndarray) -> np.ndarray:
        return linalg.matmul(v[None, :], self._adj, self.ell)[0]

    def apply_T_rows(self, V: np.ndarray) -> np.ndarray:
        return linalg.matmul(V, self._adj, self.ell)

    def v_c(self, c: int, i: int) -> np.ndarray:
        v = self.delta_sum(i)
        v[i] = (v[i] + c) % self.ell
        return v

    def u_c(self, c: int) -> Submodule:
        # v_{c,alpha} g = v_{c,alpha g} and the action is transitive, so one
        # seed generates the whole of U_c.
        return spin(self.ctxP, [self.v_c(c, 0)])

    def graph_submodule(self, c: int, base: int = 0) -> Submodule:
        """Submodule generated by the differences v_{c,alpha} - v_{c,beta}."""
        v0 = self.v_c(c, base)
        # One adjacent and one non-adjacent partner; their G-orbits cover all
        # pair types, and connectivity of the Delta-graph then spans every
        # difference, so the spin equals the full difference submodule.
        row = self._adj[base]
        betas = [int(np.nonzero(row)[0][0])]
        nonadj = np.nonzero((row == 0) & (np.arange(len(row)) != base))[0]
        if len(nonadj):
            betas.append(int(nonadj[0]))
        seeds = [(v0 - self.v_c(c, b)) % self.ell for b in betas]
        return spin(self.ctxP, seeds)

    def distinguished(self) -> tuple[Submodule, Submodule]:
        """(S, T): zero-coefficient-sum submodule and the all-ones line."""
        n = self.ctxP.dim
        ones = np.ones((1, n), dtype=np.int64)
        S_basis = linalg.nullspace(ones, self.ell)
        S = Submodule(self.ctxP, S_basis, _pivots_of(S_basis))
        T = Submodule(self.ctxP, ones, np.array([0], dtype=np.int64))
        return S, T

    def q_apply(self, v: np.ndarray) -> np.ndarray:
        """F_ell[P] -> F_ell[P0], point to the sum of its orthogonal singular points."""
        return linalg.matmul(v[None, :], self._cross, self.ell)[0]

    def r_apply(self, v: np.ndarray) -> np.ndarray:
        return linalg.matmul(v[None, :], self._cross.T, self.ell)[0]

    def q_image(self, sub: Submodule) -> Submodule:
        rows = linalg.matmul(sub.basis, self._cross, self.ell)
        return submodule_from_rows(self.ctxP0, rows)

    def r_image(self, sub: Submodule) -> Submodule:
        rows = linalg.matmul(sub.basis, self._cross.T, self.ell)
        return submodule_from_rows(self.ctxP, rows)
