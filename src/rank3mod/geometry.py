"""Formed spaces over F2/F4, their nonsingular points, and rank-3 parameters.

Four families are supported, named by which isometry group acts:

* ``o+`` / ``o-``: F2-space of even dimension 2n >= 6 with a quadratic form of
  plus or minus type.  Standard basis e_1..e_n, f_1..f_n with (e_i, f_j) =
  delta_ij, all other basis pairings zero, Q(e_i) = Q(f_j) = 0, except that the
  minus type has Q(e_n) = Q(f_n) = 1.  The quadratic form polarises as
  Q(au + bv) = a^2 Q(u) + b^2 Q(v) + ab (u, v).
* ``u`` with even or odd dimension m >= 4: F4-space with a hermitian form,
  basis e_1..e_n, f_1..f_n (plus a vector g with (g, g) = 1 when m = 2n+1),
  (u, v) conjugate-symmetric and linear in the first argument.

Points are 1-dimensional subspaces; a point is nonsingular when Q (resp. the
hermitian norm) is nonzero on it.  The Delta-neighbour convention is
per-family: for the orthogonal families Delta(alpha) is the nonsingular points
NOT orthogonal to alpha, for the unitary families it is those orthogonal to
alpha.  The unitary hermitian norm is conjugation-fixed, hence lies in F2, so
every nonsingular point has norm exactly 1 no matter the representative.

Coordinates are stored as small numpy code arrays (F2: 0/1, F4: 2-bit codes);
a point's canonical representative scales the first nonzero coordinate to 1.
Each point is also kept as uint64 bit masks, one over F2 and two over F4 (the
constant and the t plane of its coordinates), and the forms are evaluated on
those as parities of AND-ed masks.  The nonsingularity test is all that
enumerate_points evaluates; the Delta-adjacency and the P x P0 orthogonality
are built from the masks only when a caller first reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

OPLUS = "o+"
OMINUS = "o-"
UNITARY = "u"

FAMILIES = (OPLUS, OMINUS, UNITARY)

# brute_params checks every pair of points only up to this many points
EXHAUSTIVE_CHECK_MAX_POINTS = 200


@dataclass(frozen=True)
class SpaceSpec:
    family: str
    dim: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in (OPLUS, OMINUS):
            if self.dim % 2 != 0:
                raise ValueError("orthogonal families need even dimension")
            if self.dim < 6:
                raise ValueError("orthogonal families need dimension 2n >= 6")
        else:
            if self.dim < 4:
                raise ValueError("unitary family needs dimension >= 4")

    @property
    def n(self) -> int:
        """The n of O(2n) / U(2n) / U(2n+1)."""
        return self.dim // 2

    @property
    def q(self) -> int:
        return 2 if self.family in (OPLUS, OMINUS) else 4


@dataclass(frozen=True)
class Space:
    spec: SpaceSpec
    gram: np.ndarray = field(compare=False)
    qvals: np.ndarray | None = field(compare=False)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def q(self) -> int:
        return self.spec.q


def build_space(spec: SpaceSpec) -> Space:
    m, n = spec.dim, spec.dim // 2
    gram = np.zeros((m, m), dtype=np.uint8)
    for i in range(n):
        gram[i, n + i] = gram[n + i, i] = 1
    if spec.family in (OPLUS, OMINUS):
        qvals = np.zeros(m, dtype=np.uint8)
        if spec.family == OMINUS:
            qvals[n - 1] = qvals[2 * n - 1] = 1
        return Space(spec, gram, qvals)
    if spec.dim % 2 == 1:
        gram[m - 1, m - 1] = 1
    return Space(spec, gram, None)


# ---------------------------------------------------------------------------
# form evaluation

# rows of an incidence matrix built at a time: no |P| x |P| temporary wider
# than one byte is ever formed
ROW_BLOCK = 256


def _f4_split(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split F4 codes into (constant, t) F2-components."""
    return (V & 1).astype(np.int64), (V >> 1).astype(np.int64)


def f4_pair_form(space: Space, U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairwise hermitian values (u_i, v_j); returns (constant, t) parts mod 2.

    U and V may be stacks (..., k, m) of matching leading shape.
    """
    G = space.gram.astype(np.int64)
    u0, u1 = _f4_split(U)
    v0, v1 = _f4_split(V)
    # u * conj(v) has constant part u0 v0 + u0 v1 + u1 v1 and t-part u0 v1 + u1 v0.
    v0, v1 = np.swapaxes(v0, -1, -2), np.swapaxes(v1, -1, -2)
    c = (u0 @ G @ (v0 + v1) + u1 @ G @ v1) % 2
    t = (u0 @ G @ v1 + u1 @ G @ v0) % 2
    return c, t


def _masks(V: np.ndarray, q: int) -> np.ndarray:
    """Coordinate rows as uint64 bit masks, planes first: (1, k) over F2, and
    (2, k) over F4, the constant plane and the t plane."""
    bits = np.uint64(1) << np.arange(V.shape[1], dtype=np.uint64)
    planes = [V] if q == 2 else [V & 1, V >> 1]
    return np.stack([p.astype(np.uint64) @ bits for p in planes])


def _par(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x) & 1


def _apply(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Masks of A x for a 0/1 matrix A and masks X: bit i is (row i of A) . x."""
    out = np.zeros_like(X)
    for i, row in enumerate(_masks(A, 2)[0]):
        out |= _par(X & row).astype(np.uint64) << np.uint64(i)
    return out


def _pair_form(u: np.ndarray, gv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) as (constant, t) parities from the masks of u and of G v.

    Over F4 this is the algebra of f4_pair_form; over F2 the t part is 0.
    """
    if len(u) == 1:
        return _par(u[0] & gv[0]), 0
    c = _par((u[0] & (gv[0] ^ gv[1])) ^ (u[1] & gv[1]))
    t = _par((u[0] & gv[1]) ^ (u[1] & gv[0]))
    return c, t


def _orthogonal(space: Space, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """bool (|U|, |V|): whether (u_i, v_j) = 0, for point masks U and V.

    Built ROW_BLOCK rows at a time.
    """
    GV = _apply(space.gram, V)[:, None, :]
    out = np.empty((U.shape[1], V.shape[1]), dtype=bool)
    for lo in range(0, U.shape[1], ROW_BLOCK):
        c, t = _pair_form(U[:, lo:lo + ROW_BLOCK, None], GV)
        out[lo:lo + ROW_BLOCK] = (c | t) == 0
    return out


@dataclass
class PointSets:
    """Indexed nonsingular (P) and singular (P0) points with adjacency data.

    Each point is kept as its coordinate codes and as uint64 bit masks (one
    per F2 plane of its coordinates).  The two incidences are built from the
    masks the first time they are read, and then kept: adj is the
    Delta-relation on P under the family convention; cross marks orthogonal
    pairs between P and P0 (the Lambda/Gamma incidence).
    """

    space: Space
    P: np.ndarray          # (|P|, m) canonical representatives
    P0: np.ndarray         # (|P0|, m)
    P_codes: np.ndarray    # packed integer per point, increasing: the lookup index
    P0_codes: np.ndarray
    P_masks: np.ndarray    # uint64 (planes, |P|)
    P0_masks: np.ndarray   # uint64 (planes, |P0|)

    @property
    def nP(self) -> int:
        return len(self.P_codes)

    @property
    def nP0(self) -> int:
        return len(self.P0_codes)

    @cached_property
    def adj(self) -> np.ndarray:
        """bool (|P|, |P|), with a False diagonal: over F2 (v, v) = 0, so v is
        orthogonal to itself, and over F4 (v, v) = 1 on P."""
        adj = _orthogonal(self.space, self.P_masks, self.P_masks)
        if self.space.q == 2:
            np.logical_not(adj, out=adj)
        return adj

    @cached_property
    def cross(self) -> np.ndarray:
        """bool (|P|, |P0|)"""
        return _orthogonal(self.space, self.P_masks, self.P0_masks)


def _all_projective_reps(q: int, m: int) -> np.ndarray:
    """Canonical representatives of all points: first nonzero coordinate 1."""
    total = q**m
    codes = (np.arange(total, dtype=np.int64)[:, None] // q ** np.arange(m, dtype=np.int64)) % q
    codes = codes.astype(np.uint8)
    nonzero = codes.any(axis=1)
    first = np.argmax(codes != 0, axis=1)
    lead = codes[np.arange(total), first]
    keep = nonzero & (lead == 1)
    return codes[keep]


def pack_codes(V: np.ndarray, q: int) -> np.ndarray:
    weights = (q ** np.arange(V.shape[1], dtype=np.int64)).astype(np.int64)
    return V.astype(np.int64) @ weights


def enumerate_points(space: Space) -> PointSets:
    q = space.q
    reps = _all_projective_reps(q, space.dim)
    codes = pack_codes(reps, q)
    order = np.argsort(codes)
    reps, codes = reps[order], codes[order]
    M = _masks(reps, q)
    if q == 2:
        # Q(v) = (qvals . v) + v^T U v for the strict upper triangle U of the Gram matrix
        qmask = _masks(space.qvals[None, :], 2)[0, 0]
        nonsing = _par(M[0] & (qmask ^ _apply(np.triu(space.gram, 1), M)[0])) == 1
    else:
        norms_c, norms_t = _pair_form(M, _apply(space.gram, M))
        # the norm is conjugation-fixed, hence has no t-part
        if norms_t.any():
            raise AssertionError("hermitian norm left the prime field")
        nonsing = norms_c == 1
    sing = ~nonsing
    return PointSets(
        space, reps[nonsing], reps[sing], codes[nonsing], codes[sing], M[:, nonsing], M[:, sing]
    )


# ---------------------------------------------------------------------------
# rank-3 parameters


@dataclass(frozen=True)
class Rank3Params:
    v: int
    a: int
    b: int
    r: int
    s: int

    def __post_init__(self):
        if self.a + self.b + 1 != self.v:
            raise ValueError("parameter identity a + b + 1 = v fails")
        if self.a * (self.a - self.r - 1) != self.b * self.s:
            raise ValueError("strongly-regular identity a(a-r-1) = b s fails")


def brute_params(ps: PointSets) -> Rank3Params:
    """Parameters by explicit counting on the Delta-graph.

    For v <= EXHAUSTIVE_CHECK_MAX_POINTS the graph is checked to have no
    loop or one-way edge and the common neighbour counts are validated over
    every pair, which certifies that the parameters do not depend on the
    choice of base points.
    """
    A = ps.adj
    v = ps.nP
    degrees = A.sum(axis=1)
    a = int(degrees[0])
    if not (degrees == a).all():
        raise ValueError("Delta-graph is not regular; rank-3 assumption fails")
    b = v - a - 1
    Arow = A[0]
    beta = int(np.nonzero(Arow)[0][0])
    others = ~Arow.copy()
    others[0] = False
    gamma = int(np.nonzero(others)[0][0])
    r = int((A[0] & A[beta]).sum())
    s = int((A[0] & A[gamma]).sum())
    if v <= EXHAUSTIVE_CHECK_MAX_POINTS:
        if A.diagonal().any() or not (A == A.T).all():
            raise ValueError("Delta-graph has a loop or a one-way edge")
        N = (A.astype(np.float64) @ A.astype(np.float64)).astype(np.int64)
        if not (N[A] == r).all():
            raise ValueError("common-neighbour count varies over adjacent pairs")
        off = ~A & ~np.eye(v, dtype=bool)
        if not (N[off] == s).all():
            raise ValueError("common-neighbour count varies over non-adjacent pairs")
    return Rank3Params(v, a, b, r, s)


def closed_params(spec: SpaceSpec) -> Rank3Params:
    """Parameters by the closed formulas (pure integer arithmetic)."""
    n = spec.n
    if spec.family == OPLUS:
        return Rank3Params(
            v=2 ** (2 * n - 1) - 2 ** (n - 1),
            a=2 ** (2 * n - 2) - 2 ** (n - 1),
            b=2 ** (2 * n - 2) - 1,
            r=2 ** (2 * n - 3) - 2 ** (n - 2),
            s=2 ** (2 * n - 3) - 2 ** (n - 1),
        )
    if spec.family == OMINUS:
        return Rank3Params(
            v=2 ** (2 * n - 1) + 2 ** (n - 1),
            a=2 ** (2 * n - 2) + 2 ** (n - 1),
            b=2 ** (2 * n - 2) - 1,
            r=2 ** (2 * n - 3) + 2 ** (n - 2),
            s=2 ** (2 * n - 3) + 2 ** (n - 1),
        )
    if spec.dim % 2 == 0:
        # The s numerator is read with the closing parenthesis around the whole
        # sum; brute-force counting on U_4 and U_6 certifies this reading.
        return Rank3Params(
            v=(2 ** (4 * n - 1) - 2 ** (2 * n - 1)) // 3,
            a=(2 ** (4 * n - 3) + 2 ** (2 * n - 2)) // 3,
            b=2 ** (4 * n - 3) - 2 ** (2 * n - 2) - 1,
            r=(2 ** (4 * n - 5) - 2 ** (2 * n - 3)) // 3,
            s=(2 ** (4 * n - 5) + 2 ** (2 * n - 2)) // 3,
        )
    return Rank3Params(
        v=(2 ** (4 * n + 1) + 2 ** (2 * n)) // 3,
        a=(2 ** (4 * n - 1) - 2 ** (2 * n - 1)) // 3,
        b=2 ** (4 * n - 1) + 2 ** (2 * n - 1) - 1,
        r=(2 ** (4 * n - 3) + 2 ** (2 * n - 2)) // 3,
        s=(2 ** (4 * n - 3) - 2 ** (2 * n - 1)) // 3,
    )


def quadratic_roots(params: Rank3Params) -> tuple[int, int]:
    """Integer roots of x^2 + (r-s)x + (s-a) = 0, smaller absolute value first."""
    p = params.r - params.s
    q = params.s - params.a
    disc = p * p - 4 * q
    root = math.isqrt(disc)
    if root * root != disc or (-p - root) % 2 != 0:
        raise ValueError("quadratic has no integer roots; construction falsified")
    c, d = (-p - root) // 2, (-p + root) // 2
    if abs(c) > abs(d):
        c, d = d, c
    return c, d


def root_pattern(spec: SpaceSpec) -> tuple[int, int]:
    """The family's expected root pair (same order as quadratic_roots)."""
    n = spec.n
    if spec.family == OPLUS:
        return 2 ** (n - 2), -(2 ** (n - 1))
    if spec.family == OMINUS:
        return -(2 ** (n - 2)), 2 ** (n - 1)
    if spec.dim % 2 == 0:
        return -(2 ** (2 * n - 3)), 2 ** (2 * n - 2)
    return 2 ** (2 * n - 2), -(2 ** (2 * n - 1))
