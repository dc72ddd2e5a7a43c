"""Univariate polynomial arithmetic and factorisation over odd prime fields.

Polynomials are numpy int64 coefficient arrays, lowest degree first, with a
nonzero leading coefficient (the zero polynomial is the empty array).  The
factorisation route is the classical one: squarefree split, then
distinct-degree, then Cantor-Zassenhaus equal-degree splitting.  Degrees here
stay in the low thousands, so quadratic-time convolution arithmetic is fine.
Coefficients are int64 residues: a convolution sums fewer than a few
thousand products below ell^2, which is exact for every ell <= 2^15 that
F_ell matrices admit (`linalg`).
"""

from __future__ import annotations

import numpy as np

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


def _distinct_degree(f, ell):
    """Split squarefree monic f into (product-of-degree-d factors, d) pieces."""
    out = []
    x = np.array([0, 1], dtype=np.int64)
    h = x.copy()
    d = 0
    while deg(f) >= 2 * (d + 1):
        d += 1
        h = poly_pow_mod(h, ell, f, ell)
        g = poly_gcd(poly_add(h, (-x) % ell, ell), f, ell)
        if deg(g) > 0:
            out.append((g, d))
            f = poly_divmod(f, g, ell)[0]
            h = poly_mod(h, f, ell)
    if deg(f) > 0:
        out.append((f, deg(f)))
    return out


def _equal_degree(f, d, ell, rng):
    """Cantor-Zassenhaus split of squarefree f, all of whose factors have degree d."""
    n = deg(f)
    if n == d:
        return [f]
    while True:
        a = rng.integers(0, ell, size=n, dtype=np.int64)
        a = trim(a)
        if deg(a) < 1:
            continue
        g = poly_gcd(a, f, ell)
        if 0 < deg(g) < n:
            break
        b = poly_pow_mod(a, (ell**d - 1) // 2, f, ell)
        g = poly_gcd(poly_add(b, np.array([ell - 1]), ell), f, ell)
        if 0 < deg(g) < n:
            break
    rest = poly_divmod(f, g, ell)[0]
    return _equal_degree(g, d, ell, rng) + _equal_degree(rest, d, ell, rng)


def factor_poly(f, ell, seed=0):
    """Full factorisation over F_ell: list of (monic irreducible, multiplicity).

    Deterministic for a fixed seed (equal-degree splitting is randomised).
    Factors are sorted by (degree, coefficients).
    """
    f = trim(np.asarray(f, dtype=np.int64) % ell)
    if deg(f) < 1:
        return []
    rng = np.random.default_rng(np.random.SeedSequence([seed, ell, len(f)]))
    out = []
    for g, mult in _squarefree_parts(f, ell):
        for piece, d in _distinct_degree(g, ell):
            for irr in _equal_degree(piece, d, ell, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (deg(t[0]), tuple(int(c) for c in t[0])))
    return out
