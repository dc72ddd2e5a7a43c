"""Meataxe-style structure analysis: composition factors, isomorphism testing,
absolute-irreducibility certification, socles, socle series, and full
submodule lattices at desk scale.

The toolbox is the classical one.  Random algebra words (sums of short
products of generators, drawn from a seeded stream) are probed through the
annihilator polynomial of a seeded vector (Krylov); irreducible factors of
that polynomial divide the characteristic polynomial, so kernel vectors of
f(theta) are split candidates, and Norton's criterion (kernel vector spins to
everything, transpose-side kernel vector spins to everything, nullity equal
to deg f) certifies irreducibility.  A nullity-1 eigenvalue word on a simple
module also certifies absolute irreducibility: any endomorphism preserves the
kernel line, so it is scalar on a generator.

Socles are located with peak words: a word theta and eigenvalue lam with
nullity 1 on the target factor and invertible on every other composition
factor of the ambient module.  Kernel vectors of (theta - lam) in a module M
are then candidate images of the factor's distinguished line under
homomorphisms into M; a candidate m is genuine exactly when its spin has the
factor's dimension (every head constituent of spin(m) is killed by
theta - lam, hence is the target factor).  Valid candidate lines give the
simple submodules isomorphic to the factor, their sum per factor the
homogeneous socle component, and iterating over quotients the socle series
and, bottom-up by minimal overmodules, the full submodule lattice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import BudgetExceededError, CertificationError
from .fields import storage_dtype
from .modules import DenseRep, ModCtx, QuotCtx, Submodule, spin, submodule_from_rows
from .polys import factor_poly, poly_divmod, poly_eval_int, trim

HOM_MULTIPLICITY_CAP = 3


# ---------------------------------------------------------------------------
# words in the group algebra


@dataclass(frozen=True)
class Word:
    """Sum of scalar multiples of generator products; index keys caches."""

    index: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def matrix(self, action) -> np.ndarray:
        cache = getattr(action, "_word_cache", None)
        if cache is None:
            cache = {}
            action._word_cache = cache
        hit = cache.get(self.index)
        if hit is not None:
            return hit
        if len(cache) >= 4 and action.dim > 512:
            cache.pop(next(iter(cache)))
        n, ell = action.dim, action.ell
        if isinstance(action, QuotCtx):
            # the projection is equivariant for the whole group algebra, so
            # the quotient matrix of the word is lift . ambient-word . project
            amb = self.matrix(action.ambient)
            out = linalg.matmul(amb[action.nonpivots], action._proj, ell)
        else:
            out = np.zeros((n, n), dtype=np.int64)
            for coeff, seq in self.terms:
                if len(seq) == 0:
                    out[np.arange(n), np.arange(n)] += coeff
                    continue
                if isinstance(action, ModCtx):
                    pi = np.arange(n, dtype=np.int64)
                    for gi in seq:
                        pi = action.perms[gi][pi]
                    out[np.arange(n), pi] += coeff
                else:
                    M = action.gen_matrix(seq[0])
                    for gi in seq[1:]:
                        M = linalg.matmul(M, action.gen_matrix(gi), ell)
                    out = out + coeff * M
            out %= ell
        out = out.astype(storage_dtype(ell))  # entries < ell; keeps the cache small
        cache[self.index] = out
        return out


def word_stream(ngens: int, ell: int, seed: int, tag: int):
    """Deterministic endless stream of words.

    Several product terms per word: single group elements have structured
    spectra (roots of unity), while sums of a few random products behave like
    uniform algebra elements, which the peak-word searches rely on.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, ell, ngens, tag]))
    index = tag << 24
    while True:
        nterms = int(rng.integers(3, 7))
        terms = []
        for _ in range(nterms):
            length = int(rng.integers(1, 9))
            seq = tuple(int(g) for g in rng.integers(0, ngens, size=length))
            coeff = int(rng.integers(1, ell))
            terms.append((coeff, seq))
        if rng.integers(0, 2):
            terms.append((int(rng.integers(1, ell)), ()))
        index += 1
        yield Word(index, tuple(terms))


def transpose_action(action):
    if isinstance(action, ModCtx):
        return ModCtx(action.ell, [np.argsort(p) for p in action.perms], action.tag + "^T")
    return DenseRep(action.ell, [action.gen_matrix(i).T for i in range(action.ngens)])


# ---------------------------------------------------------------------------
# annihilator polynomials


def krylov_annihilator(theta: np.ndarray, v: np.ndarray, ell: int):
    """Least monic p with v p(theta) = 0, plus the Krylov vectors computed.

    Maintains a fully reduced echelon of the Krylov vectors with coefficient
    tracking; the first linear dependence yields p.
    """
    n = theta.shape[0]
    thetaf = theta.astype(np.float64)
    rows = np.zeros((n + 1, n), dtype=np.int64)
    combos = np.zeros((n + 1, n + 2), dtype=np.int64)
    kry = np.zeros((n + 1, n), dtype=np.int64)
    pivs: list[int] = []
    inv = linalg.inv_table(ell)
    kry[0] = v % ell
    k = 0
    while True:
        w = kry[k]
        caug = np.zeros(n + 2, dtype=np.int64)
        caug[k] = 1
        red = w.copy()
        if k:
            coeff = red[pivs]
            red = (red - coeff @ rows[:k]) % ell
            caug = (caug - coeff @ combos[:k]) % ell
        if not red.any():
            p = trim(caug[: k + 1])
            return p, kry[:k]
        piv = int(np.nonzero(red)[0][0])
        scale = inv[red[piv]]
        red = (red * scale) % ell
        caug = (caug * scale) % ell
        if k:
            col = rows[:k, piv].copy()
            hit = np.nonzero(col)[0]
            if len(hit):
                rows[hit] = (rows[hit] - np.outer(col[hit], red)) % ell
                combos[hit] = (combos[hit] - np.outer(col[hit], caug)) % ell
        rows[k] = red
        combos[k] = caug
        pivs.append(piv)
        k += 1
        if k > n:
            raise CertificationError("annihilator search exceeded the dimension")
        kry[k] = np.rint(kry[k - 1].astype(np.float64) @ thetaf).astype(np.int64) % ell


def _poly_on_matrix(p: np.ndarray, theta: np.ndarray, ell: int) -> np.ndarray:
    """p(theta) by Horner."""
    n = theta.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in p[::-1]:
        out = linalg.matmul(out, theta, ell)
        if c:
            out[np.arange(n), np.arange(n)] = (out.diagonal() + c) % ell
    return out


def left_kernel(M: np.ndarray, ell: int) -> np.ndarray:
    """{v : v M = 0} as RREF rows."""
    return linalg.nullspace(M.T, ell)


# ---------------------------------------------------------------------------
# factor classes


@dataclass
class FactorClass:
    rep: DenseRep
    dim: int
    fingerprint: tuple[int, ...]
    peak: tuple[Word, int] | None = None  # nullity-1 AND invertible on all other classes
    n1: tuple[Word, int] | None = None    # nullity-1 on this factor alone
    abs_irred: bool = False
    label: str | None = None
    trivial: bool = False  # all generators act as the identity

    def nullity_of(self, word: Word, lam: int, ell: int) -> int:
        th = word.matrix(self.rep)
        M = th.copy()
        M[np.arange(self.dim), np.arange(self.dim)] = (M.diagonal() - lam) % ell
        return self.dim - linalg.rank(M, ell)


@dataclass
class LatticeNode:
    ident: int
    sub: Submodule
    factors: Counter

    @property
    def dim(self) -> int:
        return self.sub.dim


@dataclass
class Lattice:
    nodes: list[LatticeNode]
    edges: list[tuple[int, int, int]]  # (lower ident, upper ident, class idx)


class Meataxe:
    """Structure analysis engine for one prime and one generator indexing."""

    def __init__(self, ell: int, ngens: int, seed: int = 0, word_budget: int = 80):
        self.ell = ell
        self.ngens = ngens
        self.seed = seed
        self.word_budget = word_budget
        self.classes: list[FactorClass] = []
        self._fingerprint_words = self._take_words(0xF1, 16)
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, ell, 0xC0]))

    def _take_words(self, tag: int, count: int) -> list[Word]:
        stream = word_stream(self.ngens, self.ell, self.seed, tag)
        return [next(stream) for _ in range(count)]

    # -- fingerprints and registration ------------------------------------

    def _fingerprint(self, rep: DenseRep) -> tuple[int, ...]:
        out = []
        for w in self._fingerprint_words:
            out.append(int(w.matrix(rep).diagonal().sum() % self.ell))
        return tuple(out)

    def register(self, rep: DenseRep) -> int:
        """Dedupe a certified-simple rep against known classes; return class index."""
        fp = self._fingerprint(rep)
        dim = rep.dim
        for idx, cls in enumerate(self.classes):
            if cls.dim == dim and cls.fingerprint == fp and self.is_iso_rep(idx, rep):
                return idx
        trivial = all(
            np.array_equal(rep.gen_matrix(i), np.eye(dim, dtype=np.int64))
            for i in range(rep.ngens)
        )
        self.classes.append(FactorClass(rep, dim, fp, trivial=trivial))
        return len(self.classes) - 1

    # -- chop ---------------------------------------------------------------

    def chop(self, action) -> Counter:
        """Composition factors with multiplicities as Counter{class index}."""
        out: Counter = Counter()
        stack = [action]
        while stack:
            m = stack.pop()
            if m.dim == 0:
                continue
            res = self._chop_one(m)
            if isinstance(res, int):
                out[res] += 1
            else:
                stack.extend(res)
        return out

    def _chop_one(self, action):
        """Either a class index (certified simple) or a [sub_rep, quot_rep] split."""
        n = action.dim
        if n == 1:
            return self.register(DenseRep(self.ell, [action.gen_matrix(i) for i in range(self.ngens)]))
        stream = word_stream(self.ngens, self.ell, self.seed, 0xC4)
        for _ in range(self.word_budget):
            word = next(stream)
            theta = word.matrix(action)
            v = self._rng.integers(0, self.ell, size=n, dtype=np.int64)
            if not v.any():
                v[0] = 1
            p, kry = krylov_annihilator(theta, v, self.ell)
            # roots of the annihilator give linear factors without a full
            # factorisation; escalate to the generic route only when rootless
            factors = [
                (np.array([(-lam) % self.ell, 1], dtype=np.int64), 1)
                for lam in range(self.ell)
                if poly_eval_int(p, lam, self.ell) == 0
            ]
            if not factors:
                factors = factor_poly(p, self.ell, seed=self.seed)
            # split attempts: kernel vectors are free from the Krylov cache
            for f, _mult in factors:
                q, rem = poly_divmod(p, f, self.ell, _pf(self.ell))
                if rem.any():
                    raise CertificationError("annihilator factorisation inconsistent")
                u = (q @ kry[: len(q)]) % self.ell if len(q) <= len(kry) else None
                if u is None or not u.any():
                    continue
                W = spin(action, [u])
                if 0 < W.dim < n:
                    return [sub_as_rep(action, W), QuotCtx(action, W)]
            # Norton certification on a minimal-nullity factor
            for f, _mult in factors:
                fM = _poly_on_matrix(f, theta, self.ell)
                K = left_kernel(fM, self.ell)
                if K.shape[0] != len(f) - 1:
                    continue  # nullity != deg f: no certificate from this factor
                W = spin(action, [K[0]])
                if W.dim < n:
                    return [sub_as_rep(action, W), QuotCtx(action, W)]
                Kt = linalg.nullspace(fM, self.ell)
                Wt = spin(transpose_action(action), [Kt[0]])
                if Wt.dim < n:
                    U = submodule_from_rows(action, linalg.nullspace(Wt.basis, self.ell))
                    if not 0 < U.dim < n:
                        raise CertificationError("transpose-side split produced no submodule")
                    return [sub_as_rep(action, U), QuotCtx(action, U)]
                # simple; certified
                rep = densify(action)
                idx = self.register(rep)
                if len(f) == 2:  # nullity-1 eigenvalue word: endomorphisms are scalar
                    cls = self.classes[idx]
                    if cls.peak is None and self._peak_ok(word, int((-f[0]) % self.ell), idx):
                        cls.peak = (word, int((-f[0]) % self.ell))
                    cls.abs_irred = True
                return idx
        raise BudgetExceededError(
            f"chop: no certificate for a dim-{n} module within {self.word_budget} words"
        )

    # -- isomorphism testing ----------------------------------------------

    def is_iso_rep(self, idx: int, rep: DenseRep) -> bool:
        """Explicit-homomorphism isomorphism test between class idx and rep."""
        cls = self.classes[idx]
        if cls.dim != rep.dim:
            return False
        if cls.dim == 1:
            return all(
                np.array_equal(cls.rep.gen_matrix(i), rep.gen_matrix(i))
                for i in range(self.ngens)
            )
        word, lam = self._nullity1_word(cls)
        thr = word.matrix(rep)
        M = thr.copy()
        M[np.arange(rep.dim), np.arange(rep.dim)] = (M.diagonal() - lam) % self.ell
        K = left_kernel(M, self.ell)
        if K.shape[0] != 1:
            return False
        sched = _standard_schedule(cls.rep, self._nullity1_kernel(cls))
        phi_rows = _replay(sched, rep, K[0])
        if phi_rows is None:
            return False
        # explicit intertwiner: raw_cls[i] -> phi_rows[i]
        X_s = np.array(sched.raw, dtype=np.int64)
        X_t = phi_rows
        Xs_inv = _mat_inverse(X_s, self.ell)
        phi = linalg.matmul(Xs_inv, X_t, self.ell)
        for i in range(self.ngens):
            lhs = linalg.matmul(cls.rep.gen_matrix(i), phi, self.ell)
            rhs = linalg.matmul(phi, rep.gen_matrix(i), self.ell)
            if not np.array_equal(lhs, rhs):
                return False
        return linalg.rank(phi, self.ell) == cls.dim

    def is_iso(self, i: int, j: int) -> bool:
        if i == j:
            return True
        ci, cj = self.classes[i], self.classes[j]
        if ci.dim != cj.dim or ci.fingerprint != cj.fingerprint:
            return False
        return self.is_iso_rep(i, cj.rep)

    def _nullity1_word(self, cls: FactorClass) -> tuple[Word, int]:
        """A (word, eigenvalue) with nullity 1 on this factor (no separation needed)."""
        if cls.n1 is not None:
            return cls.n1
        if cls.peak is not None:
            return cls.peak
        stream = word_stream(self.ngens, self.ell, self.seed, 0xA7)
        for _ in range(self.word_budget):
            word = next(stream)
            for lam in range(self.ell):
                if cls.nullity_of(word, lam, self.ell) == 1:
                    cls.n1 = (word, lam)
                    cls.abs_irred = True
                    return cls.n1
        raise BudgetExceededError(f"no nullity-1 word found for a dim-{cls.dim} factor")

    def _nullity1_kernel(self, cls: FactorClass) -> np.ndarray:
        word, lam = self._nullity1_word(cls)
        th = word.matrix(cls.rep)
        M = th.copy()
        M[np.arange(cls.dim), np.arange(cls.dim)] = (M.diagonal() - lam) % self.ell
        K = left_kernel(M, self.ell)
        if K.shape[0] != 1:
            raise CertificationError("stored peak word lost nullity 1")
        return K[0]

    # -- peak words ---------------------------------------------------------

    def _peak_ok(self, word: Word, lam: int, idx: int) -> bool:
        """Peak separation: (word - lam) invertible on every other class."""
        for j, other in enumerate(self.classes):
            if j == idx:
                continue
            if other.nullity_of(word, lam, self.ell) != 0:
                return False
        return True

    def _find_peak_for(self, idx: int, budget: int = 60) -> None:
        cls = self.classes[idx]
        stream = word_stream(self.ngens, self.ell, self.seed, 0x9E)
        for _ in range(budget):
            word = next(stream)
            for lam in range(self.ell):
                if cls.nullity_of(word, lam, self.ell) == 1 and self._peak_ok(word, lam, idx):
                    cls.peak = (word, lam)
                    cls.abs_irred = True
                    return

    def ensure_peaks(self) -> None:
        """Give every class a nullity-1 separating peak word.

        Classes are absolutely irreducible exactly when such a word exists;
        failure to find one within budget is flagged by recomputing the
        endomorphism-space dimension explicitly.
        """
        missing = [i for i, c in enumerate(self.classes) if c.peak is None]
        # peaks found during chop may fail separation against later classes
        for i, cls in enumerate(self.classes):
            if cls.peak is not None:
                word, lam = cls.peak
                if not self._peak_ok(word, lam, i):
                    cls.peak = None
                    missing.append(i)
        for i in missing:
            self._find_peak_for(i)
        still = [i for i in range(len(self.classes)) if self.classes[i].peak is None]
        if still:
            dims = [self.classes[i].dim for i in still]
            raise BudgetExceededError(
                f"no separating nullity-1 peak words for factors of dims {dims}; "
                "endomorphism rings may be larger than the prime field"
            )

    def end_dim(self, idx: int) -> int:
        """dim_F End of a class via homomorphism replay into itself."""
        cls = self.classes[idx]
        word, lam = self._nullity1_word(cls)
        sched = _standard_schedule(cls.rep, self._nullity1_kernel(cls))
        th = word.matrix(cls.rep)
        M = th.copy()
        M[np.arange(cls.dim), np.arange(cls.dim)] = (M.diagonal() - lam) % self.ell
        K = left_kernel(M, self.ell)
        count = 0
        for coeffs in _projective_reps(K.shape[0], self.ell):
            seed = (coeffs @ K) % self.ell
            if _replay(sched, cls.rep, seed) is not None:
                count += 1
        # lines in End form a projective space over F_ell
        t = 0
        while (self.ell**t - 1) // (self.ell - 1) < count:
            t += 1
        if (self.ell**t - 1) // (self.ell - 1) != count:
            raise CertificationError("endomorphism line count is not a projective count")
        return t

    # -- socle machinery ----------------------------------------------------

    def socle_lines(self, action, restrict: list[int] | None = None):
        """For each class: the valid seed lines and their simple submodules.

        Returns dict class_idx -> (mult, [Submodule lines...]).  A candidate
        kernel line is valid iff its spin has the class dimension; the count
        of valid lines must be a projective-space count.
        """
        self.ensure_peaks()
        out = {}
        for idx, cls in enumerate(self.classes):
            if restrict is not None and idx not in restrict:
                continue
            word, lam = cls.peak
            theta = word.matrix(action)
            M = theta.copy()
            M[np.arange(action.dim), np.arange(action.dim)] = (M.diagonal() - lam) % self.ell
            K = left_kernel(M, self.ell)
            if K.shape[0] == 0:
                continue
            if K.shape[0] > HOM_MULTIPLICITY_CAP:
                raise BudgetExceededError(
                    f"homogeneous multiplicity {K.shape[0]} exceeds the cap "
                    f"{HOM_MULTIPLICITY_CAP} for factor dim {cls.dim}"
                )
            lines = []
            for coeffs in _projective_reps(K.shape[0], self.ell):
                seedv = (coeffs @ K) % self.ell
                W = spin(action, [seedv], cap_dim=cls.dim)
                if W is not None and W.dim == cls.dim:
                    lines.append(W)
            if not lines:
                continue
            t = 0
            while (self.ell**t - 1) // (self.ell - 1) < len(lines):
                t += 1
            if (self.ell**t - 1) // (self.ell - 1) != len(lines):
                raise CertificationError("valid seed lines do not form a projective space")
            out[idx] = (t, lines)
        return out

    def socle(self, action) -> tuple[Submodule, Counter]:
        lines = self.socle_lines(action)
        rows = [linesub.basis for _, (_, ls) in lines.items() for linesub in ls]
        factors = Counter({idx: t for idx, (t, _) in lines.items()})
        if not rows:
            return (
                Submodule(action, np.zeros((0, action.dim), dtype=np.int64), np.array([], dtype=np.int64)),
                factors,
            )
        soc = submodule_from_rows(action, np.vstack(rows))
        expected = sum(self.classes[i].dim * t for i, t in factors.items())
        if soc.dim != expected:
            raise CertificationError("socle dimension does not match its homogeneous parts")
        return soc, factors

    def socle_series(self, ambient, start: Submodule | None = None) -> list[Counter]:
        """Ascending socle layers of ambient/start, as Counters of class indices."""
        layers: list[Counter] = []
        current = start
        while True:
            if current is None or current.dim == 0:
                act = ambient
                quot = None
            else:
                if current.dim == ambient.dim:
                    break
                quot = QuotCtx(ambient, current)
                act = quot
            soc, factors = self.socle(act)
            if soc.dim == 0:
                raise CertificationError("socle computation returned zero on a nonzero module")
            layers.append(factors)
            lifted = soc.basis if quot is None else quot.lift_rows(soc.basis)
            if current is None or current.dim == 0:
                current = submodule_from_rows(ambient, lifted)
            else:
                current = submodule_from_rows(ambient, np.vstack([current.basis, lifted]))
            if current.dim == ambient.dim:
                break
        return layers

    # -- submodule lattice ---------------------------------------------------

    def lattice(
        self,
        ambient,
        length_bound: int = 8,
        node_budget: int = 600,
        total: Counter | None = None,
    ) -> Lattice:
        """All submodules, bottom-up by minimal overmodules."""
        if total is None:
            total = self.chop(ambient)
        length = sum(total.values())
        if length > length_bound:
            raise BudgetExceededError(
                f"composition length {length} exceeds length_bound {length_bound}"
            )
        zero = Submodule(
            ambient, np.zeros((0, ambient.dim), dtype=np.int64), np.array([], dtype=np.int64)
        )
        nodes: dict[bytes, LatticeNode] = {}
        order: list[bytes] = []

        def add_node(sub: Submodule, factors: Counter) -> bytes:
            key = sub.key() + bytes(str(sub.dim), "ascii")
            if key in nodes:
                if nodes[key].factors != factors:
                    raise CertificationError("same submodule reached with different factors")
                return key
            nodes[key] = LatticeNode(len(nodes), sub, factors)
            order.append(key)
            if len(nodes) > node_budget:
                raise BudgetExceededError("lattice node budget exceeded")
            return key

        add_node(zero, Counter())
        head = 0
        edges: list[tuple[int, int, int]] = []
        while head < len(order):
            key = order[head]
            head += 1
            node = nodes[key]
            if node.dim == ambient.dim:
                continue
            if node.dim == 0:
                quot = None
                act = ambient
            else:
                quot = QuotCtx(ambient, node.sub)
                act = quot
            for cls_idx, (_t, lines) in self.socle_lines(act).items():
                for line in lines:
                    rows = line.basis if quot is None else quot.lift_rows(line.basis)
                    if node.dim:
                        rows = np.vstack([node.sub.basis, rows])
                    child = submodule_from_rows(ambient, rows)
                    factors = node.factors + Counter({cls_idx: 1})
                    ckey = add_node(child, factors)
                    edges.append((node.ident, nodes[ckey].ident, cls_idx))
        lat = Lattice([nodes[k] for k in order], edges)
        self._certify_lattice(lat, ambient)
        return lat

    def _certify_lattice(self, lat: Lattice, ambient) -> None:
        """Closure under sum and intersection over incomparable pairs.

        Comparability is read off the covering edges (they are genuine
        inclusions and complete by construction), so the sum/intersection
        certificates run only on the incomparable pairs.
        """
        from .modules import intersect_sub, sum_sub

        dims = {n.dim for n in lat.nodes}
        if 0 not in dims or ambient.dim not in dims:
            raise CertificationError("lattice missing 0 or the full module")
        bykey = {n.sub.key() + bytes(str(n.dim), "ascii") for n in lat.nodes}
        k = len(lat.nodes)
        pos = {n.ident: i for i, n in enumerate(lat.nodes)}
        below = np.eye(k, dtype=bool)
        for a, b, _c in lat.edges:
            below[pos[a], pos[b]] = True
        for _ in range(k):
            new = below | (below @ below)
            if np.array_equal(new, below):
                break
            below = new
        subs = [n.sub for n in lat.nodes]
        for i in range(k):
            for j in range(i + 1, k):
                if below[i, j] or below[j, i]:
                    continue
                A, B = subs[i], subs[j]
                for sub in (sum_sub(A, B), intersect_sub(A, B)):
                    if sub.key() + bytes(str(sub.dim), "ascii") not in bykey:
                        raise CertificationError(
                            "lattice not closed under sum/intersection "
                            f"(dims {A.dim},{B.dim} -> {sub.dim})"
                        )


# ---------------------------------------------------------------------------
# helpers


def _pf(ell: int):
    from .fields import PrimeField

    return PrimeField(ell)


def densify(action) -> DenseRep:
    return DenseRep(action.ell, [action.gen_matrix(i) for i in range(action.ngens)])


def sub_as_rep(action, sub: Submodule) -> DenseRep:
    mats = []
    for i in range(action.ngens):
        img = action.act_rows(sub.basis, i)
        mats.append(img[:, sub.pivots])
    return DenseRep(action.ell, mats)


def _projective_reps(k: int, ell: int):
    """Canonical representatives of the projective space of F_ell^k (rows)."""
    if k == 0:
        return
    for lead in range(k):
        tail = k - lead - 1
        count = ell**tail
        for code in range(count):
            v = np.zeros(k, dtype=np.int64)
            v[lead] = 1
            rest = code
            for t in range(tail):
                v[lead + 1 + t] = rest % ell
                rest //= ell
            yield v


def _mat_inverse(A: np.ndarray, ell: int) -> np.ndarray:
    n = A.shape[0]
    aug = np.hstack([A % ell, np.eye(n, dtype=np.int64)])
    R, piv = linalg.rref(aug, ell)
    if R.shape[0] != n or not np.array_equal(piv, np.arange(n)):
        raise CertificationError("matrix not invertible")
    return R[:, n:]


@dataclass
class _Schedule:
    records: list  # ('acc', parent, gen) | ('rel', parent, gen, coeffs-over-raw)
    raw: list      # accepted raw vectors on the source side


def _standard_schedule(rep: DenseRep, seed: np.ndarray) -> _Schedule:
    """Spin `seed` through rep recording acceptances and linear relations.

    Relations are recorded with coefficients over the accepted raw vectors, so
    they can be replayed verbatim against a candidate image vector.
    """
    ell = rep.ell
    d = rep.dim
    inv = linalg.inv_table(ell)
    raw: list[np.ndarray] = [seed % ell]
    records: list = []
    R = np.zeros((d, d), dtype=np.int64)
    T = np.zeros((d, d + 1), dtype=np.int64)  # R[:k] = T[:k, :len(raw)] @ raw
    pivs: list[int] = []
    k = 0

    def insert(w: np.ndarray, cr: np.ndarray):
        nonlocal k
        red = w % ell
        cr = cr.copy()
        if k:
            coeff = red[pivs]
            red = (red - coeff @ R[:k]) % ell
            cr[: T.shape[1]] = (cr[: T.shape[1]] - coeff @ T[:k]) % ell
        if not red.any():
            return None, cr
        p = int(np.nonzero(red)[0][0])
        s = inv[red[p]]
        red, cr = (red * s) % ell, (cr * s) % ell
        if k:
            col = R[:k, p].copy()
            hit = np.nonzero(col)[0]
            if len(hit):
                R[hit] = (R[hit] - np.outer(col[hit], red)) % ell
                T[hit] = (T[hit] - np.outer(col[hit], cr[: T.shape[1]])) % ell
        R[k] = red
        T[k] = cr[: T.shape[1]]
        pivs.append(p)
        k += 1
        return red, cr

    e0 = np.zeros(d + 1, dtype=np.int64)
    e0[0] = 1
    insert(raw[0], e0)
    head = 0
    while head < len(raw):
        src = head
        head += 1
        for gi in range(rep.ngens):
            w = rep.act_rows(raw[src][None, :], gi)[0]
            combo = np.zeros(d + 1, dtype=np.int64)
            combo[len(raw)] = 1
            red, cr = insert(w, combo)
            if red is None:
                # w = raw_src * g reduced to a combination of existing raws
                records.append(("rel", src, gi, (-cr[: len(raw)]) % ell))
            else:
                raw.append(w % ell)
                records.append(("acc", src, gi))
    return _Schedule(records, raw)


def _replay(sched: _Schedule, rep, seed: np.ndarray) -> np.ndarray | None:
    """Replay a standard-basis schedule against a candidate image seed.

    Returns the image raw vectors (rows aligned with sched.raw) when every
    relation holds, else None.
    """
    ell = rep.ell
    imgs = np.zeros((len(sched.raw), rep.dim), dtype=np.int64)
    imgs[0] = seed % ell
    filled = 1
    for rec in sched.records:
        if rec[0] == "acc":
            _, src, gi = rec
            imgs[filled] = rep.act_rows(imgs[src][None, :], gi)[0]
            filled += 1
        else:
            _, src, gi, coeffs = rec
            w = rep.act_rows(imgs[src][None, :], gi)[0]
            resid = (w - coeffs @ imgs[: len(coeffs)]) % ell
            if resid.any():
                return None
    return imgs
