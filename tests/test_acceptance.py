"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact.  The stated per-criterion runtimes are recorded and
asserted only against a generous 10x slack so slow CI machines do not flake.
"""

import contextlib
import hashlib
import json
import os
import time
from collections import Counter

import numpy as np
import pytest

from rank3mod import linalg
from rank3mod.analyze import canon_size, run_analysis
from rank3mod.cli import OUT_OF_SCALE_INSTANCES, _suite_one
from rank3mod.errors import OutOfScaleError
from rank3mod.geometry import (
    SpaceSpec,
    brute_params,
    build_space,
    closed_params,
    enumerate_points,
    quadratic_roots,
    root_pattern,
)

from conftest import cached_analysis, cached_pm, cached_setup, contains, graph_submodule, image_dim


@contextlib.contextmanager
def criterion(name: str, stated_seconds: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.monotonic()-t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s, stated {stated_seconds:.0f}s)")
    assert elapsed < stated_seconds * 10, "runtime grossly above the stated bound"


PARAM_INSTANCES = [
    ("o+", 6), ("o+", 8), ("o+", 10),
    ("o-", 6), ("o-", 8), ("o-", 10),
    ("u", 4), ("u", 5), ("u", 6), ("u", 7),
]


def test_criterion_1_parameters_and_counts():
    with criterion("1 parameter/count suite", 1.0):
        for family, dim in PARAM_INSTANCES:
            spec = SpaceSpec(family, dim)
            ps = enumerate_points(build_space(spec))
            cp = closed_params(spec)
            bp = brute_params(ps)
            assert bp == cp
            assert ps.nP == cp.v
            assert ps.nP0 == (spec.q**dim - 1) // (spec.q - 1) - cp.v
            assert cp.a * (cp.a - cp.r - 1) == cp.b * cp.s
            assert quadratic_roots(cp) == root_pattern(spec)


def test_criterion_2_group_certification():
    with criterion("2 group certification", 30.0):
        expect = {
            ("o+", 6): 40320,
            ("o-", 6): 51840,
            ("u", 4): 77760,
            ("u", 5): 41057280,
        }
        from rank3mod.groups import generating_pair, rank_and_orbitals

        for (family, dim), order in expect.items():
            _, points, gd = cached_setup(family, dim)
            assert gd.order == order == gd.formula_order
            p = closed_params(SpaceSpec(family, dim))
            res = rank_and_orbitals(generating_pair(gd, points)[1], points)
            assert res["transitive"] and res["rank"] == 3
            assert res["suborbits"] == sorted([1, p.a, p.b])


GRAPH_DIM_CASES = [
    ("o+", 6, (7, 20), 2**3 - 1),
    ("o-", 6, (15, 20), 2**3 + 1),
    ("u", 4, (15, 24), 2**4 - 1),
    ("u", 5, (55, 120), 2**5 + 1),
]


def test_criterion_3_graph_submodule_dimensions():
    with criterion("3 graph-submodule dimensions", 5.0):
        for family, dim, pair, divisor in GRAPH_DIM_CASES:
            p = closed_params(SpaceSpec(family, dim))
            c, d = quadratic_roots(p)
            for ell in (5, 7, 11, 13):
                if divisor % ell == 0:
                    continue
                pm = cached_pm(family, dim, ell)
                assert graph_submodule(pm, c).dim == pair[0]
                assert graph_submodule(pm, d).dim == pair[1]
            ell = 13
            pm = cached_pm(family, dim, ell)
            nonroot = next(
                x for x in range(1, ell)
                if (x * x + (p.r - p.s) * x + (p.s - p.a)) % ell
            )
            assert graph_submodule(pm, nonroot).dim == p.v - 1


TABLE_ROWS = [
    # (family, size, ell, factor multiset {(label, dim): mult}, flags subset)
    ("o+", 3, 5, {("FF", 1): 1, ("X", 7): 1, ("Y", 20): 1}, []),
    ("o+", 3, 7, {("FF", 1): 2, ("X", 7): 1, ("Y", 19): 1}, []),
    ("o+", 3, 3, {("FF", 1): 1, ("X", 7): 2, ("Z", 13): 1}, []),
    ("o+", 4, 3, {("FF", 1): 2, ("X", 35): 2, ("Z", 48): 1}, []),
    ("o-", 3, 5, {("FF", 1): 1, ("X", 15): 1, ("Y", 20): 1}, []),
    ("o-", 3, 7, {("FF", 1): 1, ("X", 15): 1, ("Y", 20): 1}, ["TABLE2_Y_DELTA"]),
    ("o-", 4, 17, {("FF", 1): 2, ("X", 51): 1, ("Y", 83): 1}, ["TABLE2_Y_DELTA"]),
    ("o-", 3, 3, {("FF", 1): 2, ("omega", 1): 1, ("X", 14): 2, ("Z", 5): 1}, []),
    ("o-", 4, 3, {("FF", 1): 1, ("omega", 1): 1, ("X", 50): 2, ("Z", 34): 1}, []),
    ("u", 4, 7, {("FF", 1): 1, ("X", 15): 1, ("Y", 24): 1}, []),
    ("u", 4, 5, {("FF", 1): 2, ("X", 15): 1, ("Y", 23): 1}, []),
    ("u", 4, 3, {("FF", 1): 1, ("Z", 10): 2, ("W1", 5): 1, ("W2", 14): 1}, []),
    ("u", 6, 3, {("FF", 1): 2, ("Z", 210): 2, ("W1", 21): 1, ("W2", 229): 1}, []),
    ("u", 5, 5, {("FF", 1): 1, ("X", 55): 1, ("Y", 120): 1}, []),
    ("u", 5, 11, {("FF", 1): 2, ("X", 55): 1, ("Y", 119): 1}, []),
    ("u", 5, 3, {("FF", 1): 2, ("X", 55): 2, ("Z", 10): 2, ("W", 44): 1}, []),
]

# sha256 of each row's report without timingsMs, as indented JSON
# (`cached_analysis`, seed 0)
TABLE_ROW_DIGESTS = {
    ("o+", 3, 5): "6567c20fa026c8b979961eba8dc1112310a50721f7973a34c38adaf812cf0def",
    ("o+", 3, 7): "31dbf6f0eabcad71b04d96f6a9cfd6cbaa4ef4fc2f940cf3baf55158aa11d182",
    ("o+", 3, 3): "832c103154b78bf349b60cd62aacd6cd73f88225dc1ac5ad8188cf9b5927c06c",
    ("o+", 4, 3): "95a5b7a150c3a4dfd7f653695ebce313dac69e0524b1bcb4c2babcb0ed19e359",
    ("o-", 3, 5): "0884537879895724cb97d10bb1d0a8cea9400d473701e5a11f0f649fde88d965",
    ("o-", 3, 7): "a011fd609649d7f265ef9dbb59e4f4b112feec134fc38a44eabccd78f56624a3",
    ("o-", 4, 17): "a3d27cd91a26e985ac21878b006f39d26b320057faff4c9fe96ad00d4ef90be2",
    ("o-", 3, 3): "13a00fb0653a9bf9e1062546515643160c4b1d24fd5beac6abcab8bd58824e72",
    ("o-", 4, 3): "ffcb7279a93b83a3bab967f75f0d907fc2d77d95d2b9ea82442ebe12f3109b67",
    ("u", 4, 7): "164e8931453b3f4f3a9009643e2e4811c2cd1ac5d7cc57363da075a465423812",
    ("u", 4, 5): "cbc567bb957a0e5b1a902419184012a1e8219f80f1fc64cfa9f540493de59e9a",
    ("u", 4, 3): "89b345a11c44f4bd2f461988971b4977a849c931d2b393c481245f3e46981b4c",
    ("u", 6, 3): "e233787505b535ee60ae30506fd494f8b8c7bad42e092a6e4a295d35e13e3d15",
    ("u", 5, 5): "a80ee0a2653334e936ae4e05d6b0e74f56aa3232a607eee49f1e246846db30f7",
    ("u", 5, 11): "0c005f5bcb2ada2c426146a17f2bb2f6b30f1b12594abef8902c7ce86b55e06a",
    ("u", 5, 3): "bc1a86effbe7bf229c6506b7a68db32a0acb767cdf563fc9aa5b26c2227de4b7",
}


def test_criterion_4_table_rows():
    with criterion("4 table row verifications", 60.0 * 15 + 600.0):
        for family, size, ell, factors, flags in TABLE_ROWS:
            res = cached_analysis(family, size, ell)
            verdict = res.report["verdict"]
            assert verdict["match"], (family, size, ell, verdict["diffs"])
            got = Counter()
            for f in res.report["factors"]:
                got[(f["label"], f["dim"])] += f["mult"]
            assert got == Counter(factors), (family, size, ell, got)
            for flag in flags:
                assert flag in verdict["flags"]
            report = dict(res.report)
            report.pop("timingsMs")
            digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
            assert digest == TABLE_ROW_DIGESTS[(family, size, ell)], (family, size, ell)


# sha256 of the U_7(2), ell = 3, seed 0 report, as TABLE_ROW_DIGESTS
U7_DIGEST = "32b4fff480cb6ce8e6652b1ecada169aab983d922737c5509218c247efcb131e"


@pytest.mark.extended
@pytest.mark.skipif(
    os.environ.get("RANK3MOD_EXTENDED") != "1",
    reason="extended U_7(2) run: set RANK3MOD_EXTENDED=1",
)
def test_criterion_5_extended_u7():
    with criterion("5 extended U_7(2)", 1800.0):
        res = run_analysis("u", 7, 3, seed=0, max_p=3000)
        verdict = res.report["verdict"]
        assert verdict["match"], verdict["diffs"]
        got = Counter()
        for f in res.report["factors"]:
            got[(f["label"], f["dim"])] += f["mult"]
        assert got == Counter(
            {("FF", 1): 3, ("X", 903): 2, ("Z", 42): 2, ("W", 859): 1}
        )
        layers = [
            [(e["label"], e["dim"]) for e in lay] for lay in res.report["socleSeries"]
        ]
        assert layers == [
            [("FF", 1), ("X", 903)],
            [("Z", 42)],
            [("FF", 1)],
            [("W", 859)],
            [("FF", 1)],
            [("Z", 42)],
            [("X", 903)],
        ]
        assert res.report["points"]["nonsingular"] == 2752
        report = dict(res.report)
        report.pop("timingsMs")
        digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
        assert digest == U7_DIGEST


def test_criterion_6_property_suites():
    with criterion("6 property suites", 60.0 * 5):
        for family, size, ell, _factors, _flags in TABLE_ROWS:
            res = cached_analysis(family, size, ell)
            pm, lat = res.pm, res.lattice
            v = pm.ctxP.dim
            p = closed_params(canon_size(family, size))
            c, d = quadratic_roots(p)

            # minimality: every nonzero node except T(FP) contains a graph submodule
            uc, ud = graph_submodule(pm, c), graph_submodule(pm, d)
            ones = np.ones((1, v), dtype=np.int64)
            for node in lat.nodes:
                if node.dim == 0:
                    continue
                if node.dim == 1 and linalg.in_rowspace(
                    ones, node.sub.basis, node.sub.pivots, ell
                ):
                    continue
                assert contains(node.sub, uc) or contains(node.sub, ud)

            # self-duality: perp is an anti-automorphism of the lattice
            key_of = {}
            for node in lat.nodes:
                key_of[node.ident] = node.sub.key() + bytes(str(node.dim), "ascii")
            perp_key = {}
            all_keys = set(key_of.values())
            for node in lat.nodes:
                pk = linalg.nullspace(node.sub.basis, ell)  # RREF, as node bases are
                k = pk.tobytes() + bytes(str(pk.shape[0]), "ascii")
                assert k in all_keys
                perp_key[key_of[node.ident]] = k
            for a, b, _cls in lat.edges:
                assert (perp_key[key_of[b]], perp_key[key_of[a]]) in {
                    (key_of[x], key_of[y]) for x, y, _ in lat.edges
                }

            # inner products of root vectors over 100 random pairs
            rng = np.random.default_rng(1)
            for _ in range(100):
                i, j = rng.integers(0, v, size=2)
                u, w = pm.v_c(c, int(i)), pm.v_c(d, int(j))
                assert linalg.matmul(u[None, :], w[:, None], ell)[0, 0] == p.s % ell

            # adjacency identity on the full basis for small instances
            if v <= 200:
                A = pm._adj
                lhs = (linalg.matmul(A, A, ell) - (p.r - p.s) % ell * A) % ell
                lhs[np.arange(v), np.arange(v)] = (lhs.diagonal() - (p.a - p.s) % ell) % ell
                assert (lhs == p.s % ell).all()

            # Q/R equivariance and nondegenerate images
            C = pm._cross
            assert image_dim(C, ell) > 1
            assert image_dim(C.T, ell) > 1
            for gi in range(pm.ctxP.ngens):
                sP, sP0 = pm.ctxP.perms[gi], pm.ctxP0.perms[gi]
                assert np.array_equal(C[np.ix_(sP, sP0)], C)

            # absolute irreducibility certificates everywhere
            assert all(f["absIrred"] for f in res.report["factors"])


def test_criterion_7_out_of_scope_declaration():
    with criterion("7 out-of-scope declaration", 5.0):
        assert ("u", 9, 3) in OUT_OF_SCALE_INSTANCES
        entry = _suite_one(("u", 9, 3, 0, 3000))
        assert entry["status"] == "OUT_OF_SCALE"
        assert entry["status"] != "PASS"
        with pytest.raises(OutOfScaleError) as err:
            run_analysis("u", 9, 3)
        assert "43776" in str(err.value)
