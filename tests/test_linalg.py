import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank3mod import linalg
from rank3mod.fields import storage_dtype

matrices = st.sampled_from([3, 5, 7, 13, 17]).flatmap(
    lambda ell: st.tuples(
        st.just(ell),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
    )
)


def random_matrix(ell, rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, ell, size=(rows, cols)).astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rref_is_reduced_and_spans(args):
    ell, rows, cols, seed = args
    A = random_matrix(ell, rows, cols, seed)
    R, piv = linalg.rref(A, ell)
    assert R.shape[0] == len(piv)
    for k, p in enumerate(piv):
        col = R[:, p]
        assert col[k] == 1 and (np.delete(col, k) == 0).all()
    # rows of A reduce to zero against R
    assert not linalg.reduce_rows(A, R, piv, ell).any()
    # idempotent
    R2, piv2 = linalg.rref(R, ell)
    assert np.array_equal(R, R2) and np.array_equal(piv, piv2)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_nullspace_annihilates(args):
    ell, rows, cols, seed = args
    A = random_matrix(ell, rows, cols, seed)
    N = linalg.nullspace(A, ell)
    assert N.shape[0] == cols - linalg.rank(A, ell)
    if N.shape[0]:
        assert not (linalg.matmul(A, N.T, ell)).any()


@settings(max_examples=40, deadline=None)
@given(matrices, st.integers(0, 2**31 - 1))
def test_sum_intersect_dimension_formula(args, seed2):
    ell, rows, cols, seed = args
    A, pa = linalg.rref(random_matrix(ell, rows, cols, seed), ell)
    B = linalg.rref(random_matrix(ell, rows, cols, seed2), ell)[0]
    if A.shape[0] == 0 or B.shape[0] == 0:
        return
    S, _ = linalg.rowspace_sum(A, pa, B, ell)
    I, ipiv = linalg.rowspace_intersect(A, pa, B, ell)
    assert S.shape[0] + I.shape[0] == A.shape[0] + B.shape[0]
    if I.shape[0]:
        RA, pa = linalg.rref(A, ell)
        RB, pb = linalg.rref(B, ell)
        assert linalg.in_rowspace(I, RA, pa, ell)
        assert linalg.in_rowspace(I, RB, pb, ell)


def test_matmul_matches_python_ints():
    rng = np.random.default_rng(7)
    A = rng.integers(0, 17, size=(9, 11)).astype(np.int64)
    B = rng.integers(0, 17, size=(11, 5)).astype(np.int64)
    want = np.array([[sum(int(A[i, k]) * int(B[k, j]) for k in range(11)) % 17
                      for j in range(5)] for i in range(9)])
    assert np.array_equal(linalg.matmul(A, B, 17), want)


def test_matmul_exact_for_large_ell():
    # 32749 needs float64; the float32 path would round these products
    ell = 32749
    rng = np.random.default_rng(11)
    A = rng.integers(0, ell, size=(4, 300)).astype(np.int64)
    B = rng.integers(0, ell, size=(300, 3)).astype(np.int64)
    want = np.array([[sum(int(A[i, k]) * int(B[k, j]) for k in range(300)) % ell
                      for j in range(3)] for i in range(4)])
    assert np.array_equal(linalg.matmul(A, B, ell), want)


# ---------------------------------------------------------------------------
# the panel kernel against pivot-at-a-time elimination


def reference_rref(A, ell):
    """Gauss-Jordan one pivot at a time, each pivot clearing its whole column."""
    A = np.array(A, dtype=np.int64) % ell
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if len(nz) == 0:
            continue
        p = r + nz[0]
        A[[r, p]] = A[[p, r]]
        A[r] = A[r] * pow(int(A[r, c]), ell - 2, ell) % ell
        coeff = A[:, c].copy()
        coeff[r] = 0
        rows = np.flatnonzero(coeff)  # row r is zero left of c
        A[rows, c:] = (A[rows, c:] - np.outer(coeff[rows], A[r, c:])) % ell
        pivots.append(c)
        r += 1
    return A[:r], pivots


def reference_nullspace(A, ell):
    R, pivots = reference_rref(A, ell)
    n = A.shape[1]
    free = [c for c in range(n) if c not in pivots]
    N = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        N[i, f] = 1
        N[i, pivots] = -R[:, f] % ell
    return reference_rref(N, ell)[0]


def kernel_cases(width, ell, rng):
    """Tall, wide, zero-size, all-zero, full-rank and rank-deficient matrices."""
    yield "tall", rng.integers(0, ell, size=(2 * width + 3, width))
    yield "wide", rng.integers(0, ell, size=(max(1, width // 2), width))
    yield "zero-rows", np.zeros((0, width), dtype=np.int64)
    yield "zero-cols", np.zeros((width, 0), dtype=np.int64)
    yield "all-zero", np.zeros((width, width), dtype=np.int64)
    yield "square", rng.integers(0, ell, size=(width, width))
    rk = max(1, width // 3)
    low = rng.integers(0, ell, size=(width + 5, rk)) @ rng.integers(0, ell, size=(rk, width))
    low[:, ::7] = 0  # zero columns inside and across panels
    yield "rank-deficient", low % ell
    # a zero first row over an upper triangular matrix with a nonzero
    # diagonal: the zero row moves down one place at every pivot, so every
    # pivot takes a row exchange
    upper = np.triu(rng.integers(0, ell, size=(width, width)))
    upper[np.diag_indices(width)] = rng.integers(1, ell, size=width)
    yield "exchanges", np.vstack([np.zeros((1, width), dtype=np.int64), upper])
    yield from blocked_cases(width, ell, rng)


def blocked_cases(width, ell, rng):
    """Panels taller than PANEL, eliminated in more than one round of blocks."""
    P = linalg.PANEL
    # the first PANEL rows are non-zero, of rank <= PANEL / 2 and zero left
    # of column `half`; the later rows are not, so a later round finds
    # pivots left of the first round's
    half = min(width, P) // 2
    rk = max(1, min(width - half, P // 2))
    span = rng.integers(0, ell, size=(rk, width))
    span[:, :half] = 0
    span[:, half] = 0
    span[0, half] = 1
    coeffs = rng.integers(0, ell, size=(P, rk))
    coeffs[:, 0] = rng.integers(1, ell, size=P)
    top = coeffs @ span % ell
    assert top.any(axis=1).all()
    yield "late-left", np.vstack([top, rng.integers(0, ell, size=(3 * P + 5, width))])
    yield "low-rows", np.vstack(
        [np.zeros((3 * P, width), dtype=np.int64), rng.integers(0, ell, size=(P + 7, width))]
    )
    # three blocks of PANEL non-zero multiples of one row each, then the rest
    lines = rng.integers(0, ell, size=(3, width))
    lines[np.arange(3), np.arange(3) % width] = 1
    mults = [np.outer(rng.integers(1, ell, size=P), v) % ell for v in lines]
    yield "rounds", np.vstack(mults + [rng.integers(0, ell, size=(P // 2, width))])


# 23 and 29 are the last ell with an int16 and the first with an int32 work dtype
@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("ell", [3, 5, 17, 23, 29, 127, 131, 32749])
def test_kernel_matches_pivot_at_a_time(width, ell):
    rng = np.random.default_rng(1000 * width + ell)
    for name, A in kernel_cases(width, ell, rng):
        R0, piv0 = reference_rref(A, ell)
        R, piv = linalg.rref(A, ell)
        assert R.dtype == storage_dtype(ell) and piv.dtype == np.int64, name
        assert np.array_equal(R, R0) and list(piv) == piv0, name
        # input already in the storage dtype is widened without a remainder,
        # into rows that are contiguous even when the input is a transpose
        R1, piv1 = linalg.rref(linalg.asmat(A, ell), ell)
        assert np.array_equal(R1, R0) and list(piv1) == piv0, name
        assert linalg._work_copy(linalg.asmat(A, ell).T, ell).flags.c_contiguous, name
        assert linalg.rank(A, ell) == len(piv0), name
        if A.shape[1]:
            assert np.array_equal(linalg.nullspace(A, ell), reference_nullspace(A, ell)), name
        # the transpose crosses the panels in the other direction
        assert linalg.rank(A.T, ell) == len(piv0), name
        RT0, pivT0 = reference_rref(A.T, ell)
        RT, pivT = linalg.rref(A.T, ell)
        assert np.array_equal(RT, RT0) and list(pivT) == pivT0, name
        if A.shape[0]:
            assert np.array_equal(linalg.nullspace(A.T, ell), reference_nullspace(A.T, ell)), name


@pytest.mark.parametrize("width", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("ell", [3, 23, 29, 32749])
def test_the_pivot_loop_sees_at_most_panel_rows(monkeypatch, width, ell):
    heights = []
    pivot_block = linalg._pivot_block

    def recorded(B, *args):
        heights.append(B.shape[0])
        return pivot_block(B, *args)

    monkeypatch.setattr(linalg, "_pivot_block", recorded)
    rng = np.random.default_rng(2000 * width + ell)
    for name, A in blocked_cases(width, ell, rng):
        heights.clear()
        R, piv = linalg.rref(A, ell)
        assert heights and max(heights) <= linalg.PANEL, name
        if name == "rounds" and width >= 3:
            # the first panel takes a round for each block of multiples
            assert len(heights) >= 3, name
        heights.clear()
        assert linalg.rank(A, ell) == len(piv) and max(heights) <= linalg.PANEL, name


def reference_intersection(A, B, ell):
    """RREF of the row space of A met with that of B, from the kernel of [A; B]^T."""
    X = reference_nullspace(np.vstack([A, B]).T, ell)[:, : len(A)]
    return reference_rref(X @ A % ell, ell)


def assert_stored(X, ell):
    assert X.dtype == storage_dtype(ell)
    assert X.size == 0 or (X.min() >= 0 and X.max() < ell)


@pytest.mark.parametrize("ell", [3, 127, 131, 32749])
def test_every_result_is_one_stored_type(ell):
    # A and B share a 20-dimensional subspace, and 70 columns cross a panel
    rng = np.random.default_rng(ell)
    shared = rng.integers(0, ell, size=(20, 70))
    A = np.vstack([rng.integers(0, ell, size=(25, 20)) @ shared, rng.integers(0, ell, size=(10, 70))]) % ell
    B = np.vstack([rng.integers(0, ell, size=(25, 20)) @ shared, rng.integers(0, ell, size=(5, 70))]) % ell
    C = rng.integers(0, ell, size=(70, 40))

    P = linalg.matmul(A, C, ell)
    assert_stored(P, ell)
    assert np.array_equal(P, A @ C % ell)

    R, piv = linalg.rref(A, ell)
    R0, piv0 = reference_rref(A, ell)
    assert_stored(R, ell)
    assert np.array_equal(R, R0) and list(piv) == piv0

    N = linalg.nullspace(A, ell)
    assert_stored(N, ell)
    assert np.array_equal(N, reference_nullspace(A, ell))

    # stored and int64 rows reduce alike
    for V in (B, linalg.asmat(B, ell)):
        res = linalg.reduce_rows(V, R, piv, ell)
        assert_stored(res, ell)
        assert np.array_equal(res, (B - B[:, piv] @ R0) % ell)

    S, spiv = linalg.rowspace_sum(R, piv, B, ell)
    S0, spiv0 = reference_rref(np.vstack([A, B]), ell)
    assert_stored(S, ell)
    assert np.array_equal(S, S0) and list(spiv) == spiv0

    Int, ipiv = linalg.rowspace_intersect(R, piv, B, ell)
    I0, ipiv0 = reference_intersection(A, B, ell)
    assert_stored(Int, ell)
    assert np.array_equal(Int, I0) and list(ipiv) == ipiv0
    assert len(ipiv) == len(piv) + linalg.rank(B, ell) - len(spiv) >= 20


@pytest.mark.parametrize("ell", [3, 127, 131, 32749])
def test_clear_column_matches_int64(ell):
    # 127 is the last ell whose multiples fit int16, 131 the first in int32
    rng = np.random.default_rng(ell)
    X = linalg.asmat(rng.integers(0, ell, size=(12, 40)), ell)
    X[5, 7] = ell - 1
    rows = np.array([0, 2, 3, 9, 11])
    out = linalg.clear_column(X, rows, 5, 7, ell)
    Y = X.astype(np.int64)
    coef = Y[rows, 7] * pow(int(Y[5, 7]), ell - 2, ell) % ell
    assert_stored(out, ell)
    assert np.array_equal(out, (Y[rows] - coef[:, None] * Y[5]) % ell)
    assert not out[:, 7].any()


def test_full_rank_square_and_identity_block():
    ell = 5
    rng = np.random.default_rng(4)
    while True:
        A = rng.integers(0, ell, size=(130, 130))
        if linalg.rank(A, ell) == 130:
            break
    R, piv = linalg.rref(A, ell)
    assert np.array_equal(R, np.eye(130, dtype=np.int64))
    assert np.array_equal(piv, np.arange(130))
    assert linalg.nullspace(A, ell).shape == (0, 130)


def test_inexact_fields_are_refused():
    ell = 2**31 - 1  # prime; (ell - 1)^2 > 2^53
    A = np.array([[1, 2], [3, 4]], dtype=np.int64)
    with pytest.raises(ValueError):
        linalg.matmul(A, A, ell)
    with pytest.raises(ValueError):
        linalg.rref(A, ell)
    with pytest.raises(ValueError):
        linalg.rank(A, ell)


# ---------------------------------------------------------------------------
# one reduction path, and each nullspace in one elimination

REDUCTION_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.bool_]
REDUCTION_ELLS = [3, 5, 127, 131, 32749]


def residues_int64(A, ell):
    """A mod ell by an int64 remainder: the reference for `asmat` and `_work_copy`."""
    return np.remainder(np.asarray(A).astype(np.int64), np.int64(ell))


def extreme_matrix(dtype, ell, rows, cols, seed):
    """Entries over all of dtype's range, with its extremes and the values
    around 0, ell and -ell among them."""
    rng = np.random.default_rng(seed)
    if dtype is np.bool_:
        return rng.integers(0, 2, size=(rows, cols)).astype(bool)
    info = np.iinfo(dtype)
    A = rng.integers(info.min, info.max, size=(rows, cols), dtype=dtype, endpoint=True)
    specials = [info.min, info.min + 1, info.max - 1, info.max, -1, 0, 1, ell - 1, ell, ell + 1, -ell, -ell - 1]
    specials = np.array([v for v in specials if info.min <= v <= info.max], dtype=dtype)
    flat = A.reshape(-1)
    flat[: min(len(flat), len(specials))] = specials[: len(flat)]
    return A


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(REDUCTION_DTYPES),
    st.sampled_from(REDUCTION_ELLS),
    # up to 48 x 48: sizes on both sides of _reduce's 1024-entry switch
    st.integers(1, 48),
    st.integers(1, 48),
    st.integers(0, 2**31 - 1),
    st.booleans(),
)
def test_asmat_and_work_copy_match_the_int64_remainder(dtype, ell, rows, cols, seed, transpose):
    A = extreme_matrix(dtype, ell, rows, cols, seed)
    stored = np.dtype(dtype) == storage_dtype(ell)
    if stored:  # a matrix of the storage dtype is taken to be reduced
        A = residues_int64(A, ell).astype(dtype)
    if transpose:
        A = A.T
    before = A.copy()
    want = residues_int64(A, ell)
    M = linalg.asmat(A, ell)
    assert M.dtype == storage_dtype(ell) and (M is A) == stored
    assert np.array_equal(M, want)
    W = linalg._work_copy(A, ell)
    assert W.dtype == linalg._work_dtype(ell) and W.flags.c_contiguous
    assert np.array_equal(W, want)
    assert A.dtype == before.dtype and np.array_equal(A, before)


def two_elimination_nullspace(A, ell):
    """The kernel as `nullspace` built it before: one vector per free column
    of rref(A), and their RREF by a second elimination."""
    A = np.asarray(A)
    n = A.shape[1]
    R, piv = linalg.rref(A, ell)
    free = np.setdiff1d(np.arange(n), piv)
    N = linalg.zeros((len(free), n), ell)
    if len(free) == 0:
        return N
    N[np.arange(len(free)), free] = 1
    if R.shape[0]:
        N[:, piv] = (-R[:, free].T) % ell
    return linalg.rref(N, ell)[0]


def nullspace_cases(ell, seed):
    rng = np.random.default_rng(seed)
    yield "zero", np.zeros((5, 7), dtype=np.int64)
    while True:
        A = rng.integers(0, ell, size=(6, 6))
        if linalg.rank(A, ell) == 6:
            break
    yield "full-rank", A
    yield "full-row-rank", np.hstack([np.eye(4, dtype=np.int64), rng.integers(0, ell, size=(4, 3))])
    yield "one-row", rng.integers(0, ell, size=(1, 9))
    yield "one-column", rng.integers(0, ell, size=(9, 1))
    yield "zero-column", np.zeros((3, 1), dtype=np.int64)
    rk = 4
    low = rng.integers(0, ell, size=(80, rk)) @ rng.integers(0, ell, size=(rk, 150)) % ell
    low[:, ::9] = 0
    yield "rank-deficient", low
    yield "rank-deficient-stored", linalg.asmat(low, ell).T
    yield "random", rng.integers(-(2**40), 2**40, size=(70, 130))


@pytest.mark.parametrize("ell", [3, 5, 127, 131, 32749])
def test_nullspace_is_the_two_elimination_kernel_in_one(monkeypatch, ell):
    calls = []
    eliminate = linalg._eliminate

    def counted(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    for name, A in nullspace_cases(ell, ell):
        want = two_elimination_nullspace(A, ell)
        monkeypatch.setattr(linalg, "_eliminate", counted)
        calls.clear()
        N = linalg.nullspace(A, ell)
        assert len(calls) == 1, name
        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        assert N.dtype == storage_dtype(ell), name
        assert np.array_equal(N, want), name
        assert np.array_equal(N, reference_nullspace(A, ell)), name


def test_no_remainder_outside_linalg():
    # every reduction of an F_ell array goes through `linalg`'s floor-divide
    # path: no np.remainder call and no `%=` anywhere else in the package
    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
                found.append(f"{path.name}:{node.lineno} %=")
            elif isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in ("remainder", "mod", "fmod"):
                    found.append(f"{path.name}:{node.lineno} {name}()")
    assert found == []
