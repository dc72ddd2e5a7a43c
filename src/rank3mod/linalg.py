"""Dense linear algebra over F_ell.

Matrices are numpy integer arrays with entries in 0..ell-1, and every result
is an int64 array reduced into that range.  Products go through float BLAS in
the precision `fields.product_dtype` picks from ell and the inner dimension,
which refuses (ValueError) any product that would not be exact.

Row reduction is one kernel, `_eliminate`: Gaussian elimination that reveals
the rank profile one panel of PANEL columns at a time, as in FFLAS-FFPACK
(Dumas, Giorgi, Pernet, ACM TOMS 35, 2008) and Jeannerod, Pernet, Storjohann
(J. Symb. Comput. 56, 2013).  The pivots of a panel are found on the narrow
panel alone, which also tracks the k x k transform taking the chosen rows to
reduced rows; one product applies it to the rest of those rows, and one more
clears the panel's pivot columns from every other row.

Bases of subspaces are always kept in reduced row echelon form with sorted
pivots, so equality of subspaces is equality of arrays.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .fields import product_dtype

PANEL = 64

_INV_CACHE: dict[int, np.ndarray] = {}


def inv_table(ell: int) -> np.ndarray:
    tab = _INV_CACHE.get(ell)
    if tab is None:
        tab = np.zeros(ell, dtype=np.int64)
        for x in range(1, ell):
            tab[x] = pow(x, ell - 2, ell)
        _INV_CACHE[ell] = tab
    return tab


def _reduce(X: np.ndarray, ell: int) -> np.ndarray:
    """X mod ell, in place.

    numpy divides integer arrays by a scalar several times faster than it
    takes their remainder, so large arrays form the remainder as
    X - ell * (X // ell); small ones save the two extra calls.
    """
    if X.size <= 512:
        np.remainder(X, ell, out=X)
        return X
    q = X // ell
    q *= ell
    X -= q
    return X


@cache
def _work_dtype(ell: int) -> type:
    """Integer dtype of the elimination's working copy.

    Entries are reduced lazily: between two reductions an entry takes at most
    PANEL updates x - c * p with 0 <= c, p < ell, so it stays above
    -PANEL * (ell - 1)^2.
    """
    bound = PANEL * (ell - 1) ** 2 + ell
    if bound < 2**15:
        return np.int16
    if bound < 2**31:
        return np.int32
    if bound < 2**53:  # also the bound of exact float64 panel products
        return np.int64
    raise ValueError(f"ell = {ell} is too large for exact elimination")


def _product(A: np.ndarray, B: np.ndarray, ell: int, dtype) -> np.ndarray:
    """A B as integers of `dtype`, not yet reduced, through one exact float product."""
    dt = product_dtype(ell, A.shape[1])
    return (A.astype(dt) @ B.astype(dt)).astype(dtype)


def matmul(A: np.ndarray, B: np.ndarray, ell: int) -> np.ndarray:
    return _reduce(_product(A, B, ell, np.int64), ell)


def _panel(A: np.ndarray, w: int, ell: int, track: bool, clear_above: bool):
    """Pivot-at-a-time elimination of the narrow panel A[:, :w], in place.

    Returns (pivot positions, row swaps).  The swaps bring the pivot rows to
    the top in pivot order; afterwards A[:k, :w] are those rows reduced on
    the panel (unit pivots, cleared from each other when clear_above), and
    A[k:, :w] is zero.  With `track`, A has w more columns, zero on entry,
    and A[:k, w:w+k] becomes the transform T: the reduced pivot rows are T
    times the pivot rows as they were given.
    """
    h = A.shape[0]
    inv = inv_table(ell)
    piv: list[int] = []
    swaps: list[tuple[int, int]] = []
    k = 0
    # a column that is zero below the pivot rows stays so: skip those
    for j in np.flatnonzero(A[:, :w].any(axis=0)).tolist():
        if k == h:
            break
        lo = 0 if clear_above else k
        col = _reduce(A[lo:, j], ell)
        nz = col[k - lo :].nonzero()[0]
        if len(nz) == 0:
            continue
        p = k + int(nz[0])
        if p != k:
            A[[k, p]] = A[[p, k]]
            swaps.append((k, p))
        end = w + k + 1 if track else w
        if track:
            A[k, w + k] = 1
        row = _reduce(A[k, j:end], ell)
        if row[0] != 1:
            row *= inv[row[0]]
            _reduce(row, ell)
        if clear_above:
            coeff = A[:, j, None].copy()
            coeff[k] = 0
            A[:, j:end] -= coeff * row
        else:
            A[k + 1 :, j:end] -= A[k + 1 :, j, None] * row
        piv.append(j)
        k += 1
    _reduce(A, ell)
    return piv, swaps


def _eliminate(W: np.ndarray, ell: int, reduced: bool) -> list[int]:
    """Panel elimination of W in place; returns the pivot columns.

    W holds entries 0..ell-1 in the dtype `_work_dtype(ell)`.  Afterwards its
    first r = len(pivots) rows are the pivot rows in pivot order, and in
    reduced row echelon form when `reduced`.  Without `reduced` only the
    pivots are meaningful: the rows above a panel are left as they are.
    """
    m, n = W.shape
    pivots: list[int] = []
    r = 0
    for c0 in range(0, n, PANEL):
        if r == m:
            break
        c1 = min(c0 + PANEL, n)
        w = c1 - c0
        if c1 == n:
            # the last panel is the rest of its rows (zero left of c0): in place
            piv, _ = _panel(W[r:, c0:], w, ell, False, clear_above=reduced)
        else:
            # the transform is needed to reach the columns right of the panel
            A = np.zeros((m - r, 2 * w), dtype=W.dtype)
            A[:, :w] = W[r:, c0:c1]
            piv, swaps = _panel(A, w, ell, True, clear_above=True)
        k = len(piv)
        if k == 0:
            continue
        cols = [c0 + j for j in piv]
        if c1 < n:
            for a, b in swaps:
                W[[r + a, r + b]] = W[[r + b, r + a]]
            # pivot rows right of the panel: T times the rows as they were
            right = _reduce(_product(A[:k, w : w + k], W[r : r + k, c1:], ell, W.dtype), ell)
            rest = W[r + k :]
            if len(rest):
                rest[:, c1:] -= _product(rest[:, cols], right, ell, W.dtype)
                _reduce(rest[:, c1:], ell)
            W[r : r + k, c1:] = right
            W[r : r + k, c0:c1] = A[:k, :w]
            W[r + k :, c0:c1] = 0
        if reduced and r:
            W[:r, c0:] -= _product(W[:r, cols], W[r : r + k, c0:], ell, W.dtype)
            _reduce(W[:r, c0:], ell)
        pivots.extend(cols)
        r += k
    return pivots


def _work_copy(A, ell: int) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    W = np.empty(A.shape, dtype=_work_dtype(ell))
    np.remainder(A, np.int64(ell), out=W, casting="unsafe")
    return W


def rref(A: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form.  Returns (R, pivot_columns); R has no zero rows."""
    W = _work_copy(A, ell)
    pivots = _eliminate(W, ell, reduced=True)
    return W[: len(pivots)].astype(np.int64), np.array(pivots, dtype=np.int64)


def rank(A: np.ndarray, ell: int) -> int:
    return len(_eliminate(_work_copy(A, ell), ell, reduced=False))


def nullspace(A: np.ndarray, ell: int) -> np.ndarray:
    """RREF basis of {x : x A^T = 0}, i.e. right kernel of A as row vectors."""
    A = np.asarray(A)
    n = A.shape[1]
    R, piv = rref(A, ell)
    free = np.setdiff1d(np.arange(n), piv)
    if len(free) == 0:
        return np.zeros((0, n), dtype=np.int64)
    N = np.zeros((len(free), n), dtype=np.int64)
    N[np.arange(len(free)), free] = 1
    # x_piv = -R[:, free]^T for each free column unit vector
    if R.shape[0]:
        N[:, piv] = (-R[:, free].T) % ell
    return rref(N, ell)[0]


def reduce_rows(V: np.ndarray, basis: np.ndarray, pivots: np.ndarray, ell: int) -> np.ndarray:
    """Reduce rows of V modulo an RREF basis (returns the residues)."""
    V = _reduce(np.array(V, dtype=np.int64), ell)
    if basis.shape[0] == 0 or V.shape[0] == 0:
        return V
    V -= matmul(V[:, pivots], basis, ell)
    return _reduce(V, ell)


def in_rowspace(V: np.ndarray, basis: np.ndarray, pivots: np.ndarray, ell: int) -> bool:
    return not reduce_rows(np.atleast_2d(V), basis, pivots, ell).any()


def rowspace_sum(A: np.ndarray, B: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    return rref(np.vstack([A, B]), ell)


def rowspace_intersect(A: np.ndarray, B: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Zassenhaus-style intersection via the kernel of the stacked matrix."""
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64), np.array([], dtype=np.int64)
    # x*A + y*B = 0  =>  x*A is in the intersection (and all of it arises this way).
    stacked = np.vstack([A, B])
    ker = nullspace(stacked.T, ell)
    if ker.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64), np.array([], dtype=np.int64)
    X = ker[:, : A.shape[0]]
    return rref(matmul(X, A, ell), ell)
