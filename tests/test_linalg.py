import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank3mod import linalg

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
    A = linalg.rref(random_matrix(ell, rows, cols, seed), ell)[0]
    B = linalg.rref(random_matrix(ell, rows, cols, seed2), ell)[0]
    if A.shape[0] == 0 or B.shape[0] == 0:
        return
    S, _ = linalg.rowspace_sum(A, B, ell)
    I, ipiv = linalg.rowspace_intersect(A, B, ell)
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
        A = (A - np.outer(coeff, A[r])) % ell
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
        for k, p in enumerate(pivots):
            N[i, p] = -R[k, f] % ell
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


@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("ell", [3, 5, 17, 131, 32749])
def test_kernel_matches_pivot_at_a_time(width, ell):
    rng = np.random.default_rng(1000 * width + ell)
    for name, A in kernel_cases(width, ell, rng):
        R0, piv0 = reference_rref(A, ell)
        R, piv = linalg.rref(A, ell)
        assert R.dtype == np.int64 and piv.dtype == np.int64, name
        assert np.array_equal(R, R0) and list(piv) == piv0, name
        assert linalg.rank(A, ell) == len(piv0), name
        if A.shape[1]:
            assert np.array_equal(linalg.nullspace(A, ell), reference_nullspace(A, ell)), name
        # the transpose crosses the panels in the other direction
        assert linalg.rank(A.T, ell) == len(piv0), name


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
