import functools

import numpy as np
import pytest

from rank3mod import linalg
from rank3mod.analyze import run_analysis
from rank3mod.fields import GF4_CONJ, GF4_MUL
from rank3mod.geometry import SpaceSpec, build_space, enumerate_points
from rank3mod.groups import build_group, induced_perm
from rank3mod.modules import ModCtx, PermModule, Section, Submodule, quot_rep, spin, sub_rep, whole_submodule


def naive_quadratic(space, v):
    """Reference Q: sum of qvals on support plus pairwise bilinear terms."""
    total = 0
    m = space.dim
    for i in range(m):
        total ^= int(v[i]) * int(space.qvals[i])
    for i in range(m):
        for j in range(i + 1, m):
            total ^= int(v[i]) * int(v[j]) * int(space.gram[i, j])
    return total


def naive_form(space, u, v):
    """Reference (u, v), summed term by term over the Gram matrix: the
    hermitian form on F4 codes, and so the bilinear form on F2 codes, where
    F4's product and conjugation restrict to those of F2."""
    acc = 0
    for i, j in np.argwhere(space.gram):
        acc ^= int(GF4_MUL[GF4_MUL[u[i], GF4_CONJ[v[j]]], space.gram[i, j]])
    return acc


@functools.cache
def cached_setup(family: str, dim: int, seed: int = 0):
    """(space, points, group) for one instance; shared across tests."""
    spec = SpaceSpec(family, dim)
    space = build_space(spec)
    points = enumerate_points(space)
    group = build_group(space, points, seed=seed)
    return space, points, group


@functools.cache
def cached_pm(family: str, dim: int, ell: int, seed: int = 0) -> PermModule:
    space, points, group = cached_setup(family, dim, seed)
    pairs = [induced_perm(space, points, M) for M in group.mats]
    return PermModule(points, ell, [p.on_P for p in pairs], [p.on_P0 for p in pairs])


@functools.cache
def cached_analysis(family: str, size: int, ell: int, seed: int = 0):
    return run_analysis(family, size, ell, seed=seed)


def graph_submodule(pm: PermModule, c: int) -> Submodule:
    """U'_c, spun from its two seeds."""
    return spin(pm.ctxP, pm.graph_seeds(c))


def zero_sum_and_ones(pm: PermModule) -> tuple[Submodule, Submodule]:
    """The zero-sum submodule of F_ell[P], with the RREF basis e_i - e_last,
    and the all-ones line."""
    n, ell = pm.ctxP.dim, pm.ell
    S = np.zeros((n - 1, n), dtype=np.int64)
    S[np.arange(n - 1), np.arange(n - 1)] = 1
    S[:, -1] = ell - 1
    ones = np.ones((1, n), dtype=np.int64)
    return (
        Submodule(pm.ctxP, linalg.asmat(S, ell), np.arange(n - 1)),
        Submodule(pm.ctxP, linalg.asmat(ones, ell), np.array([0])),
    )


def whole_section(ctx: ModCtx) -> Section:
    """The permutation module ctx as a section of itself, so that a chop can
    take it whole, with no split."""
    return sub_rep(whole_submodule(ctx))


def quotient_section(sub: Submodule) -> Section:
    """M / N, for N = sub a submodule of the permutation module M, as a
    section of M with a lift (`quot_rep` of N in the whole section), on the
    coordinates of `QuotCtx(M, N)`: a reference a word acts on."""
    whole = whole_section(sub.action)
    return quot_rep(Submodule(whole, sub.basis, sub.pivots))


def perm_matrix(p: np.ndarray, ell: int) -> np.ndarray:
    """The matrix P of the permutation p, P[i, p[i]] = 1."""
    n = len(p)
    P = linalg.zeros((n, n), ell)
    P[np.arange(n), p] = 1
    return P


def conjugated_section(section: Section, C: np.ndarray) -> Section:
    """The section in the basis whose vectors are the rows of the invertible
    C in its coordinates: lift C lift and projection proj C^-1, so that its
    generator matrices are C g C^-1."""
    ell, d = section.ell, section.dim
    C = linalg.asmat(C, ell)
    R, _ = linalg.rref(np.hstack([C, linalg.asmat(np.eye(d, dtype=np.int64), ell)]), ell)
    Cinv = R[:, d:]
    proj = Cinv if section.proj is None else linalg.matmul(section.proj, Cinv, ell)
    return Section(section.ctx, section.in_module(C), section.cols, proj)


def rotated_section(section: Section) -> Section:
    """The same section data over the permutation module whose generators
    are those of section's rotated by one: generator i acts as i + 1 did."""
    ctx = section.ctx
    rotated = ModCtx(ctx.ell, ctx.perms[1:] + ctx.perms[:1])
    return Section(rotated, section.lift, section.cols, section.proj)


def contains(A: Submodule, B: Submodule) -> bool:
    """Whether the submodule A contains B."""
    return B.dim <= A.dim and linalg.in_rowspace(B.basis, A.basis, A.pivots, A.action.ell)


def same_submodule(A: Submodule, B: Submodule) -> bool:
    """Whether A and B have the same RREF basis and pivots."""
    return A.key() == B.key() and np.array_equal(A.pivots, B.pivots)


def image_dim(C: np.ndarray, ell: int) -> int:
    """Dimension of the span of the row differences C_i - C_last: the image
    of the zero-sum module under x -> x C."""
    return linalg.rank((C[:-1].astype(np.int64) - C[-1]) % ell, ell)


@pytest.fixture
def setup():
    return cached_setup


@pytest.fixture
def pm_factory():
    return cached_pm


@pytest.fixture
def analysis():
    return cached_analysis
