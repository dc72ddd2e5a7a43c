"""Univariate polynomial arithmetic and factorisation over odd prime fields.

Polynomials are numpy int64 coefficient arrays, lowest degree first, with a
nonzero leading coefficient (the zero polynomial is the empty array).
Coefficients are int64 residues: a convolution sums fewer than a few
thousand products below ell^2, which is exact for every ell <= 2^15 that
F_ell matrices admit (`linalg`).

Factorisation is a squarefree split followed by Berlekamp's method
(Bell Syst. Tech. J. 46, 1967) on each squarefree part g of degree n.  Its
linear algebra goes through `linalg`: the Frobenius matrix Q, whose row i
holds x^(ell i) mod g, is filled by doubling from C^ell, C being the
companion matrix of g, in O(log ell + log n) products of n x n matrices,
and the left kernel of Q - I (the polynomials b with b^ell = b mod g) is
one elimination.  Its dimension is the number of irreducible factors of g;
random elements b of it split g by gcd(b^((ell-1)/2) - 1, g), since b is a
constant of F_ell modulo each irreducible factor, a square for about half
of them.  The remaining polynomial arithmetic is quadratic-time
convolution and division on degrees in the low thousands at most.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import inv_table


def trim(p: np.ndarray) -> np.ndarray:
    nz = np.nonzero(p)[0]
    if len(nz) == 0:
        return p[:0]
    return p[: nz[-1] + 1]


def deg(p: np.ndarray) -> int:
    return len(p) - 1


def poly_mul(a, b, ell):
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    return trim(np.convolve(a, b) % ell)


def poly_add(a, b, ell):
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] += b
    return trim(out % ell)


def poly_divmod(a, b, ell):
    """Quotient and remainder; b must be nonzero."""
    b = trim(b % ell)
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = a.copy() % ell
    db, da = deg(b), deg(a)
    if da < db:
        return a[:0], trim(a)
    lead_inv = inv_table(ell)[b[-1]]
    q = np.zeros(da - db + 1, dtype=np.int64)
    for k in range(da - db, -1, -1):
        c = (a[db + k] * lead_inv) % ell
        if c:
            q[k] = c
            a[k : k + db + 1] = (a[k : k + db + 1] - c * b) % ell
    return trim(q), trim(a)


def poly_mod(a, b, ell):
    return poly_divmod(a, b, ell)[1]


def poly_gcd(a, b, ell):
    a, b = trim(a % ell), trim(b % ell)
    while len(b):
        a, b = b, poly_mod(a, b, ell)
    if len(a):
        a = (a * inv_table(ell)[a[-1]]) % ell
    return a


def poly_pow_mod(base, e, mod, ell):
    result = np.array([1], dtype=np.int64)
    base = poly_mod(base, mod, ell)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, ell), mod, ell)
        base = poly_mod(poly_mul(base, base, ell), mod, ell)
        e >>= 1
    return result


def poly_deriv(p, ell):
    if len(p) <= 1:
        return p[:0]
    return trim((p[1:] * np.arange(1, len(p))) % ell)


def poly_eval_int(p, x, ell) -> int:
    acc = 0
    for c in p[::-1]:
        acc = (acc * x + int(c)) % ell
    return acc


def monic(p, ell):
    if len(p) == 0:
        return p
    return (p * inv_table(ell)[p[-1]]) % ell


def _squarefree_parts(f, ell):
    """Return [(g, multiplicity)] with each g squarefree monic and f = prod g^mult."""
    out = []
    f = monic(f, ell)
    if deg(f) < 1:
        return out
    df = poly_deriv(f, ell)
    if len(df) == 0:
        # f'(x) = 0 means f(x) = h(x)^ell (scalars are their own ell-th roots over F_ell).
        h = trim(f[::ell].copy())
        return [(g, k * ell) for g, k in _squarefree_parts(h, ell)]
    c = poly_gcd(f, df, ell)
    w = poly_divmod(f, c, ell)[0]
    i = 1
    while deg(w) > 0:
        y = poly_gcd(w, c, ell)
        z = poly_divmod(w, y, ell)[0]
        if deg(z) > 0:
            out.append((monic(z, ell), i))
        w = y
        c = poly_divmod(c, y, ell)[0]
        i += 1
    if deg(c) > 0:
        # what is left is h(x)^ell; recurse on its ell-th root h
        out.extend((g, k * ell) for g, k in _squarefree_parts(trim(c[::ell].copy()), ell))
    return out


def _mat_pow(M: np.ndarray, e: int, ell: int) -> np.ndarray:
    """M^e for e >= 1, by repeated squaring."""
    out = None
    while True:
        if e & 1:
            out = M if out is None else linalg.matmul(out, M, ell)
        e >>= 1
        if not e:
            return out
        M = linalg.matmul(M, M, ell)


def _frobenius_matrix(g, ell):
    """Q for monic g of degree n: row i holds the coefficients of x^(ell i) mod g.

    Row i of the companion matrix C holds x^(i+1) mod g, so C^k multiplies
    by x^k modulo g.  With the rows below k known, those below 2k are them
    times (C^ell)^k.
    """
    n = deg(g)
    C = linalg.zeros((n, n), ell)
    C[np.arange(n - 1), np.arange(1, n)] = 1
    C[n - 1] = (-g[:n]) % ell
    X = _mat_pow(C, ell, ell)
    Q = linalg.zeros((n, n), ell)
    Q[0, 0] = 1
    k = 1
    while k < n:
        m = min(k, n - k)
        Q[k:k + m] = linalg.matmul(Q[:m], X, ell)
        k += m
        if k < n:
            X = linalg.matmul(X, X, ell)
    return Q


def _berlekamp(g, ell, rng):
    """Monic irreducible factors of squarefree monic g (Berlekamp)."""
    n = deg(g)
    if n == 1:
        return [g]
    Q = _frobenius_matrix(g, ell)
    Q[np.arange(n), np.arange(n)] = (Q.diagonal() - 1) % ell
    B = linalg.nullspace(Q.T, ell).astype(np.int64)  # b with b (Q - I) = 0
    pieces = [g]
    minus_one = np.array([ell - 1], dtype=np.int64)
    while len(pieces) < len(B):
        b = trim(rng.integers(0, ell, size=len(B)) @ B % ell)
        split = []
        for h in pieces:
            c = poly_pow_mod(b, (ell - 1) // 2, h, ell)
            d = poly_gcd(poly_add(c, minus_one, ell), h, ell)
            if 0 < deg(d) < deg(h):
                split += [d, poly_divmod(h, d, ell)[0]]
            else:
                split.append(h)
        pieces = split
    return pieces


def factor_poly(f, ell, seed=0):
    """Full factorisation over F_ell: list of (monic irreducible, multiplicity).

    The factors do not depend on the seed, which only drives Berlekamp's
    random splitting elements.  They are sorted by (degree, coefficients).
    """
    f = trim(np.asarray(f, dtype=np.int64) % ell)
    if deg(f) < 1:
        return []
    rng = np.random.default_rng(np.random.SeedSequence([seed, ell, len(f)]))
    out = []
    for g, mult in _squarefree_parts(f, ell):
        out.extend((irr, mult) for irr in _berlekamp(g, ell, rng))
    out.sort(key=lambda t: (deg(t[0]), tuple(int(c) for c in t[0])))
    return out
