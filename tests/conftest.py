import functools

import numpy as np
import pytest

from rank3mod.analyze import run_analysis
from rank3mod.fields import GF4_CONJ, GF4_MUL
from rank3mod.geometry import SpaceSpec, build_space, enumerate_points
from rank3mod.groups import build_group
from rank3mod.modules import PermModule


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
    _, points, group = cached_setup(family, dim, seed)
    return PermModule(
        points, ell, [p.on_P for p in group.pairs], [p.on_P0 for p in group.pairs]
    )


@functools.cache
def cached_analysis(family: str, size: int, ell: int, seed: int = 0):
    return run_analysis(family, size, ell, seed=seed)


@pytest.fixture
def setup():
    return cached_setup


@pytest.fixture
def pm_factory():
    return cached_pm


@pytest.fixture
def analysis():
    return cached_analysis
