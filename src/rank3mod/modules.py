"""Linear algebra of the permutation modules F_ell[P] and F_ell[P0].

A module is described by an action object: either a ModCtx (group generators
act as coordinate permutations, the ambient permutation module) or a DenseRep
(generators are dense matrices, used for submodules and quotients).  Vectors
are rows and matrices are F_ell matrices in `linalg`'s one storage dtype;
right action throughout.

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
        M = linalg.zeros((self.dim, self.dim), self.ell)
        M[np.arange(self.dim), self.perms[i]] = 1
        return M


class DenseRep:
    """Module with dense generator matrices over F_ell (right action)."""

    def __init__(self, ell: int, mats: list[np.ndarray]):
        self.ell = ell
        self.mats = [linalg.asmat(m, ell) for m in mats]
        self.dim = self.mats[0].shape[0] if self.mats else 0

    @property
    def ngens(self) -> int:
        return len(self.mats)

    def act_rows(self, V: np.ndarray, i: int) -> np.ndarray:
        return linalg.matmul(V, self.mats[i], self.ell)

    def gen_matrix(self, i: int) -> np.ndarray:
        return self.mats[i]


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
        return self.basis.tobytes()

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
        """Raise unless every generator maps the basis into its span (the
        whole space is closed, so it returns at once)."""
        act = self.action
        if self.dim == act.dim:
            return
        for i in range(act.ngens):
            img = act.act_rows(self.basis, i)
            res = linalg.reduce_rows(img, self.basis, self.pivots, act.ell)
            if res.any():
                raise CertificationError(
                    f"submodule of dim {self.dim} not closed under generator {i}"
                )


def spin(action, seeds, cap_dim: int | None = None) -> Submodule | None:
    """Smallest generator-closed subspace containing the seed vectors.

    Generator images are taken one BFS round at a time, and each generator's
    images are merged into the basis as one block (`linalg.rowspace_sum`);
    the rows that block adds are the next round's.  The rounds end when a
    round adds nothing or the basis spans the whole space.  With cap_dim the
    spin aborts (returning None) as soon as the dimension exceeds the cap.
    """
    ell = action.ell
    basis, pivots = linalg.rref(np.array(list(seeds)).reshape(-1, action.dim), ell)
    if cap_dim is not None and len(pivots) > cap_dim:
        return None
    block = basis
    while len(block) and len(pivots) < action.dim:
        found = []
        for i in range(action.ngens):
            basis, merged = linalg.rowspace_sum(basis, pivots, action.act_rows(block, i), ell)
            new = np.ones(len(merged), dtype=bool)
            new[np.searchsorted(merged, pivots)] = False  # rows at old pivots were there before
            found.append(basis[new])
            pivots = merged
            if cap_dim is not None and len(pivots) > cap_dim:
                return None
        block = np.vstack(found)
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


def sum_sub(A: Submodule, B: Submodule) -> Submodule:
    basis, piv = linalg.rowspace_sum(A.basis, A.pivots, B.basis, A.action.ell)
    return Submodule(A.action, basis, piv)


def _pivots_of(R: np.ndarray) -> np.ndarray:
    return np.array([int(np.nonzero(r)[0][0]) for r in R], dtype=np.int64)


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
        P = linalg.zeros((n, len(nonpiv)), ell)
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
                rows = action.act_rows(_unit_rows(nonpiv, n, ell), i)
                mats.append(linalg.matmul(rows, P, ell))
        super().__init__(ell, mats)

    def lift_rows(self, V: np.ndarray) -> np.ndarray:
        out = linalg.zeros((V.shape[0], self.ambient.dim), self.ell)
        out[:, self.nonpivots] = V
        return out


def _unit_rows(indices: np.ndarray, n: int, ell: int) -> np.ndarray:
    out = linalg.zeros((len(indices), n), ell)
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
        self._adj = linalg.asmat(points.adj, ell)
        self._cross = linalg.asmat(points.cross, ell)

    def delta_sum(self, i: int) -> np.ndarray:
        """Characteristic vector of Delta(alpha_i)."""
        return self._adj[i].copy()

    def v_c(self, c: int, i: int) -> np.ndarray:
        v = self.delta_sum(i)
        v[i] = (int(v[i]) + c) % self.ell
        return v

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
        ones = linalg.asmat(np.ones((1, n), dtype=np.int64), self.ell)
        S_basis = linalg.nullspace(ones, self.ell)
        S = Submodule(self.ctxP, S_basis, _pivots_of(S_basis))
        T = Submodule(self.ctxP, ones, np.array([0], dtype=np.int64))
        return S, T

    def q_image(self, sub: Submodule) -> Submodule:
        rows = linalg.matmul(sub.basis, self._cross, self.ell)
        return submodule_from_rows(self.ctxP0, rows)

    def r_image(self, sub: Submodule) -> Submodule:
        rows = linalg.matmul(sub.basis, self._cross.T, self.ell)
        return submodule_from_rows(self.ctxP, rows)
