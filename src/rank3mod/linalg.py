"""Dense linear algebra over F_ell.

An F_ell matrix is a numpy array with entries in 0..ell-1 in one integer
dtype, `fields.storage_dtype(ell)`: int8 up to ell = 127 and int16 up to
2^15.  Every matrix this module returns has that type, and a matrix of that
type is taken to be reduced; `asmat` brings any other integer array into it.
Entries are widened only here, in the elimination's working copies and in
product buffers.  Products go through float BLAS in the precision
`fields.product_dtype` picks from ell and the inner dimension, which refuses
(ValueError) any product that would not be exact.

Narrow integers wrap silently, so arithmetic on F_ell matrices outside this
module must stay inside (-ell, ell), as a difference of two of them does, or
widen first.

Row reduction is one kernel, `_eliminate`: Gaussian elimination that reveals
the rank profile one panel of PANEL columns at a time, as in FFLAS-FFPACK
(Dumas, Giorgi, Pernet, ACM TOMS 35, 2008) and Jeannerod, Pernet, Storjohann
(J. Symb. Comput. 56, 2013).  The pivots of a panel are found on the narrow
panel alone, which also tracks the k x k transform taking the chosen rows to
reduced rows; one product applies it to the rest of those rows, and one more
clears the panel's pivot columns from every other row.

The panel itself is eliminated in rounds (`_panel`), blocked by rows as well:
pivot by pivot on a block of at most PANEL rows, the first whose residue is
non-zero, then one product per round clears the block's pivots from the rows
below it.  A pivot step updates only the block's rows, so its cost does not
grow with the height of the panel.  The panel returns the order its rows
ended in, and `_eliminate` moves only the rows of W whose place changed.

A pivot step takes its column mod ell, exchanges the first row with a
nonzero entry into place through one copied row, takes the pivot row mod
ell, and only then scales it to a unit pivot and subtracts its multiples
from the other rows of the block.  The order matters: entries are reduced
lazily, and the bound of `_work_dtype` holds only if every multiple
subtracted is c * p with both c and p already in 0..ell-1 (scaling an
unreduced row overflows int16 at ell = 17).  The rounds' products also
multiply reduced entries only, at most PANEL terms each.

Bases of subspaces are always kept in reduced row echelon form with sorted
pivots, so equality of subspaces is equality of arrays.  `rowspace_sum` and
`rowspace_intersect` merge a further set of rows into such a basis, and
`merge_rref` joins two such bases of subspaces that meet in 0 with no
elimination, when the second is zero at the first's pivots.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .fields import product_dtype, storage_dtype

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
    """X mod ell, in place, with the modulus a scalar of X's own dtype.

    numpy floor-divides a contiguous integer array by a scalar several times
    faster than it takes the remainder, so large arrays form the remainder as
    X - ell * (X // ell); small ones save the two extra passes.
    """
    m = X.dtype.type(ell)
    if X.size <= 1024:
        X %= m
        return X
    q = X // m
    q *= m
    X -= q
    return X


@cache
def _work_dtype(ell: int) -> type:
    """Integer dtype of the elimination's working copy.

    Entries are reduced lazily: between two reductions an entry takes at most
    PANEL updates x - c * p with 0 <= c, p < ell, one per pivot of a block,
    or one product of at most PANEL such terms, so it stays above
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


@cache
def _inv_work(ell: int) -> np.ndarray:
    """The inverses mod ell in the work dtype, so scaling a row keeps its dtype."""
    return inv_table(ell).astype(_work_dtype(ell))


def zeros(shape, ell: int) -> np.ndarray:
    return np.zeros(shape, dtype=storage_dtype(ell))


def asmat(A, ell: int) -> np.ndarray:
    """A as an F_ell matrix: A itself when it has the storage dtype, else A mod ell in it."""
    A = np.asarray(A)
    dt = storage_dtype(ell)
    if A.dtype == dt:
        return A
    return np.remainder(A, np.int64(ell), out=np.empty(A.shape, dtype=dt), casting="unsafe")


def sum_dtype(terms: int, ell: int) -> type:
    """The narrowest integer dtype, from int16 up, that holds a sum of `terms`
    products of two residues mod ell."""
    bound = terms * (ell - 1) ** 2
    return next(dt for dt in (np.int16, np.int32, np.int64) if bound < np.iinfo(dt).max)


def clear_column(X: np.ndarray, rows: np.ndarray, i: int, c: int, ell: int) -> np.ndarray:
    """X[rows] minus the multiples of X[i] that make column c zero, as a new
    F_ell matrix; X[i, c] must be non-zero.  One pass, in the narrowest
    dtype that holds x - a * y (`sum_dtype`)."""
    dt = sum_dtype(2, ell)
    coef = X[rows, c].astype(dt) * dt(inv_table(ell)[X[i, c]])
    _reduce(coef, ell)
    out = X[rows].astype(dt)
    out -= coef[:, None] * X[i].astype(dt)
    return _reduce(out, ell).astype(storage_dtype(ell))


def minus_scalar(M: np.ndarray, lam: int, ell: int) -> np.ndarray:
    """M - lam I as a new F_ell matrix."""
    out = asmat(M, ell).copy()
    n = M.shape[0]
    out[np.arange(n), np.arange(n)] = (out.diagonal() - lam % ell) % ell
    return out


def _product(A: np.ndarray, B: np.ndarray, ell: int, dtype=None) -> np.ndarray:
    """A B as integers of `dtype`, not yet reduced, through one exact float product.

    Without a dtype the product buffer is int32 when float32 is exact, else int64.
    """
    dt = product_dtype(ell, A.shape[1])
    if dtype is None:
        dtype = np.int32 if dt is np.float32 else np.int64
    return (A.astype(dt) @ B.astype(dt)).astype(dtype)


def matmul(A: np.ndarray, B: np.ndarray, ell: int) -> np.ndarray:
    return _reduce(_product(A, B, ell), ell).astype(storage_dtype(ell))


def _swap_into(A: np.ndarray, order: np.ndarray, rows: np.ndarray, k: int) -> None:
    """Bring the rows at the sorted positions `rows` (all >= k) to k, k+1, ...

    Rows already in that range stay; each other one changes places with a
    row that is in the range but not among `rows`.  `order` moves with A.
    """
    top = k + len(rows)
    out = rows[rows >= top]
    if len(out):
        free = np.setdiff1d(np.arange(k, top), rows, assume_unique=True)
        both = np.concatenate([free, out])
        swapped = np.concatenate([out, free])
        A[both] = A[swapped]
        order[both] = order[swapped]


def _pivot_block(B: np.ndarray, order: np.ndarray, w: int, t: int, ell: int, track: bool) -> list[int]:
    """Pivot-at-a-time elimination of the block B (at most PANEL rows) on
    its panel B[:, :w], in place; returns the new pivot columns.

    Each pivot is cleared from every other row of the block, so afterwards
    B's first rows are the pivot rows, in pivot order, and the identity at
    the new pivot columns; the rest are zero on the panel.  `order` moves
    with B's rows.  With `track`, the pivot row that becomes the i-th gets a
    1 in transform column t + i before it is scaled.

    Each pivot reduces its column and then its row before scaling the row,
    so every update x - c * p has 0 <= c, p < ell, and an entry of B takes
    at most len(B) <= PANEL of them: the bound `_work_dtype` rests on.  The
    column and row are small or strided, where one remainder by a scalar of
    the work dtype is the cheapest form.
    """
    b = B.shape[0]
    m = B.dtype.type(ell)
    inv = _inv_work(ell)
    new: list[int] = []
    # a column that is zero on the block stays so: skip those
    for j in np.flatnonzero(B[:, :w].any(axis=0)).tolist():
        i = len(new)
        if i == b:
            break
        col = B[:, j]
        col %= m
        nz = col[i:].nonzero()[0]
        if len(nz) == 0:
            continue
        p = i + int(nz[0])
        if p != i:
            row = B[p].copy()
            B[p] = B[i]
            B[i] = row
            order[p], order[i] = order[i], order[p]
        end = t + i + 1 if track else w
        if track:
            B[i, t + i] = 1
        row = B[i, j:end]
        row %= m
        if row[0] != 1:
            row *= inv[row[0]]
            row %= m
        upd = B[:, j, None] * row
        upd[i] = 0
        B[:, j:end] -= upd
        new.append(j)
    return new


def _panel(A: np.ndarray, w: int, ell: int, track: bool, clear_above: bool):
    """Elimination of the narrow panel A[:, :w], in place, in rounds.

    Returns (pivot positions, row order): A's row i is now the row order[i]
    of the input.  A[:k] are the pivot rows, in pivot order, reduced on the
    panel (unit pivots, cleared from each other when clear_above); what the
    other rows hold is unspecified.  With `track`, A has w more columns,
    zero on entry, and A[:k, w:w+k] becomes the transform T: the reduced
    pivot rows are T times the input rows order[:k].

    Each round moves a block of at most PANEL rows, the first whose panel
    residue is non-zero, up to the pivot rows found so far, and runs the
    pivot-at-a-time loop on it alone (`_pivot_block`).  Its pivot rows are
    then the identity at its new pivot columns, so one product clears those
    columns from every row below the block, transform columns included (and
    one more from the earlier pivot rows, when clear_above), and those rows
    are reduced.  The products multiply reduced entries, at most PANEL terms
    each, which keeps `_work_dtype`'s bound.  The rounds end when no row
    has a non-zero residue or every panel column holds a pivot.  A later
    round may find pivots left of earlier ones, so at the end the pivot rows
    are put in column order, with T's rows and columns.
    """
    h = A.shape[0]
    order = np.arange(h)
    piv: list[int] = []
    k = 0
    start = 0  # the rows above are pivot rows or zero on the panel
    rounds = 0
    while k < w:
        if h - start <= PANEL:
            # the last round: the rest, rows of zero residue among them
            last = True
            if start > k:
                _swap_into(A, order, np.arange(start, h), k)
            b = h - start
        else:
            blk = start + np.flatnonzero(A[start:, :w].any(axis=1))
            if len(blk) == 0:
                break
            last = len(blk) <= PANEL
            blk = blk[:PANEL]
            _swap_into(A, order, blk, k)
            b = len(blk)
        rounds += 1
        new = _pivot_block(A[k : k + b], order[k : k + b], w, w + k, ell, track)
        kb = len(new)
        if kb == 0:  # no row left has a non-zero residue
            break
        end = w + k + kb if track else w
        P = _reduce(A[k : k + kb, :end], ell)
        others = [A[:k]] if clear_above and k else []
        if not last and k + kb < w:
            others.append(A[k + b :])
        for X in others:
            X[:, :end] -= _product(X[:, new], P, ell, A.dtype)
            _reduce(X[:, :end], ell)
        piv.extend(new)
        start = k + b
        k += kb
        if last:
            break
    if rounds > 1:  # one round finds its pivots in column order
        srt = np.argsort(piv)
        if (srt != np.arange(k)).any():
            A[:k] = A[srt]
            if track:
                A[:k, w : w + k] = A[:k, w : w + k][:, srt]
            order[:k] = order[srt]
            piv = sorted(piv)
    return piv, order


def _eliminate(W: np.ndarray, ell: int, reduced: bool) -> list[int]:
    """Panel elimination of W in place; returns the pivot columns.

    W holds entries 0..ell-1 in the dtype `_work_dtype(ell)`.  Afterwards its
    first r = len(pivots) rows are the pivot rows in pivot order, and in
    reduced row echelon form when `reduced`.  Without `reduced` only the
    pivots are meaningful: the rows above a panel are left as they are.

    A panel other than the last is copied with its transform columns and
    eliminated in rounds (`_panel`); its row order is then applied to W by
    moving only the rows whose place changed, one product applies T to the
    pivot rows right of the panel, and one more clears the panel's pivot
    columns from the rows below them.  The last panel is the rest of its
    rows and is eliminated in place.
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
            piv, order = _panel(A, w, ell, True, clear_above=True)
        k = len(piv)
        if k == 0:
            continue
        cols = [c0 + j for j in piv]
        if c1 < n:
            moved = np.flatnonzero(order != np.arange(len(order)))
            if len(moved):  # W's rows from r on are zero left of c0
                W[r + moved, c0:] = W[r + order[moved], c0:]
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
    if A.dtype == storage_dtype(ell):  # reduced already; rows contiguous, also for a transpose
        return A.astype(_work_dtype(ell), order="C")
    W = np.empty(A.shape, dtype=_work_dtype(ell))
    np.remainder(A, np.int64(ell), out=W, casting="unsafe")
    return W


def rref(A: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form.  Returns (R, pivot_columns); R has no zero rows."""
    W = _work_copy(A, ell)
    pivots = _eliminate(W, ell, reduced=True)
    return W[: len(pivots)].astype(storage_dtype(ell)), np.array(pivots, dtype=np.int64)


def rank(A: np.ndarray, ell: int) -> int:
    return len(_eliminate(_work_copy(A, ell), ell, reduced=False))


def nullspace(A: np.ndarray, ell: int) -> np.ndarray:
    """RREF basis of {x : x A^T = 0}, i.e. right kernel of A as row vectors."""
    A = np.asarray(A)
    n = A.shape[1]
    R, piv = rref(A, ell)
    free = np.setdiff1d(np.arange(n), piv)
    N = zeros((len(free), n), ell)
    if len(free) == 0:
        return N
    N[np.arange(len(free)), free] = 1
    # x_piv = -R[:, free]^T for each free column unit vector
    if R.shape[0]:
        N[:, piv] = (-R[:, free].T) % ell
    return rref(N, ell)[0]


def reduce_rows(V: np.ndarray, basis: np.ndarray, pivots: np.ndarray, ell: int) -> np.ndarray:
    """Reduce rows of V modulo an RREF basis (returns the residues)."""
    V = asmat(V, ell)
    if basis.shape[0] == 0 or V.shape[0] == 0:
        return V
    return _reduce(V - matmul(V[:, pivots], basis, ell), ell)


def in_rowspace(V: np.ndarray, basis: np.ndarray, pivots: np.ndarray, ell: int) -> bool:
    return not reduce_rows(np.atleast_2d(V), basis, pivots, ell).any()


def rowspace_sum(
    A: np.ndarray, pivots: np.ndarray, B: np.ndarray, ell: int
) -> tuple[np.ndarray, np.ndarray]:
    """RREF basis and pivots of rowspace(A) + rowspace(B), for A in RREF with these pivots.

    B is reduced against A with one product and only its residues are
    eliminated; they are zero in A's pivot columns, so `merge_rref`
    completes the echelon form.  A itself is returned when B adds nothing.
    """
    res = reduce_rows(B, A, pivots, ell)
    res = res[res.any(axis=1)]
    if len(res) == 0:
        return A, pivots
    return merge_rref(A, pivots, *rref(res, ell), ell)


def merge_rref(
    A: np.ndarray, pa: np.ndarray, B: np.ndarray, pb: np.ndarray, ell: int
) -> tuple[np.ndarray, np.ndarray]:
    """RREF basis and pivots of rowspace(A) + rowspace(B), for A and B in RREF
    with pivots pa and pb and B zero in A's pivot columns.

    No elimination: B's pivot columns are cleared from A's rows with one
    product, and the rows are interleaved by pivot, so A's rows and pivots
    keep their places among B's.
    """
    piv = np.concatenate([pa, pb])
    order = np.argsort(piv, kind="stable")
    return np.vstack([reduce_rows(A, B, pb, ell), B])[order], piv[order]


def rowspace_intersect(
    A: np.ndarray, pivots: np.ndarray, B: np.ndarray, ell: int
) -> tuple[np.ndarray, np.ndarray]:
    """RREF basis and pivots of rowspace(A) & rowspace(B), for A in RREF with these pivots.

    The intersection is spanned by the combinations of B's rows whose
    residue modulo A vanishes.
    """
    combos = nullspace(reduce_rows(B, A, pivots, ell).T, ell)  # c with c . res = 0
    return rref(matmul(combos, B, ell), ell)


def krylov_annihilator(theta: np.ndarray, v: np.ndarray, ell: int):
    """Least monic p with v p(theta) = 0, plus the Krylov vectors computed.

    All n + 1 Krylov rows v theta^i, i <= n, are made, and their transpose
    is put in reduced row echelon form once.  Once v theta^d lies in the
    span of the earlier rows so does every later one, so the pivots are the
    columns 0 .. d - 1: deg p = d, and column d holds the coefficients of
    v theta^d over the earlier rows.  (Eliminating growing prefixes of the
    rows instead re-eliminates them each time the prefix grows, and the
    degree is close to n on the chop's pieces.)
    """
    n = theta.shape[0]
    dt = product_dtype(ell, n)
    thetaf = theta.astype(dt)
    kry = zeros((n + 1, n), ell)
    kry[0] = v % ell
    for i in range(1, n + 1):
        kry[i] = np.remainder(kry[i - 1].astype(dt) @ thetaf, ell)
    R, piv = rref(kry.T, ell)
    d = len(piv)
    p = np.zeros(d + 1, dtype=np.int64)
    p[:d] = (-R[:, d]) % ell
    p[d] = 1
    return p, kry[:d]
