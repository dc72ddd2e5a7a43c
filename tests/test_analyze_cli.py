import ast
import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import rank3mod
from rank3mod import analyze, geometry, linalg
from rank3mod.analyze import diagram_iso, run_analysis, verify_result
from rank3mod.cli import SUITE_INSTANCES, main
from rank3mod.errors import BudgetExceededError, CertificationError, OutOfScaleError
from rank3mod.fields import storage_dtype
from rank3mod.geometry import SpaceSpec, closed_params, quadratic_roots
from rank3mod.groups import StabilizerChain
from rank3mod.meataxe import Lattice, LatticeNode
from rank3mod.modules import DenseRep, ModCtx, QuotCtx, Section, Submodule

from conftest import cached_analysis, cached_pm

SCHEMA_KEYS = [
    "schema", "input", "points", "params", "roots", "group",
    "factors", "socleSeries", "lattice", "verdict", "timingsMs",
]


def test_report_schema_field_order():
    res = cached_analysis("o+", 3, 5)
    assert list(res.report.keys()) == SCHEMA_KEYS
    assert list(res.report["input"].keys()) == ["family", "m", "n", "ell", "seed"]
    assert list(res.report["points"].keys()) == ["nonsingular", "singular"]
    assert list(res.report["params"].keys()) == ["v", "a", "b", "r", "s"]
    assert list(res.report["group"].keys()) == ["order", "formulaOrder", "rank", "suborbits"]
    assert isinstance(res.report["group"]["order"], str)
    assert res.report["schema"] == 1
    node = res.report["lattice"]["nodes"][0]
    assert list(node.keys()) == ["id", "dim"]


def test_report_deterministic_modulo_timings():
    a = run_analysis("o+", 3, 3, seed=5).report
    b = run_analysis("o+", 3, 3, seed=5).report
    a2, b2 = dict(a), dict(b)
    a2.pop("timingsMs")
    b2.pop("timingsMs")
    assert json.dumps(a2) == json.dumps(b2)


def test_verify_is_idempotent():
    res = cached_analysis("o+", 3, 3)
    layers_raw = res.meataxe.socle_series(res.pm.ctxP, res.lattice)
    v1 = verify_result(res.lattice, layers_raw, res.chop_total, res.meataxe, res.label_of, res.expected)
    v2 = verify_result(res.lattice, layers_raw, res.chop_total, res.meataxe, res.label_of, res.expected)
    assert v1 == v2 == res.report["verdict"]


def test_out_of_scale_guard():
    with pytest.raises(OutOfScaleError) as err:
        run_analysis("u", 9, 3)
    assert "43776" in str(err.value)


def test_table2_flag_in_report():
    res = cached_analysis("o-", 3, 7)
    assert res.report["verdict"]["match"]
    assert "TABLE2_Y_DELTA" in res.report["verdict"]["flags"]
    y = [f for f in res.report["factors"] if f["label"] == "Y"]
    assert y[0]["dim"] == 20


def test_all_factors_absolutely_irreducible():
    for family, size, ell in [("o+", 3, 3), ("o-", 3, 3), ("u", 4, 3)]:
        res = cached_analysis(family, size, ell)
        assert all(f["absIrred"] for f in res.report["factors"])


def test_maximal_chain_dims_sum():
    res = cached_analysis("o-", 3, 3)
    assert res.report["points"]["nonsingular"] == sum(
        e["dim"] * e_mult
        for e, e_mult in ((f, f["mult"]) for f in res.report["factors"])
    )


@pytest.mark.parametrize("ell,seed", [(3, 0), (131, 1)])
def test_every_kept_matrix_has_the_storage_dtype(monkeypatch, ell, seed):
    reps = []

    def recording(cls):
        init = cls.__init__

        def recording_init(self, *args):
            init(self, *args)
            reps.append(self)

        monkeypatch.setattr(cls, "__init__", recording_init)

    # the chop's pieces and splits, the class representatives and the walk's
    # quotients are sections (QuotCtx initialises through Section); the
    # transposes and the isomorphism test's S + T are dense reps
    recording(Section)
    recording(DenseRep)
    res = run_analysis("o+", 3, ell, seed=seed)
    assert res.report["verdict"]["match"]
    want = storage_dtype(ell)
    sections = [r for r in reps if isinstance(r, Section)]
    assert any(isinstance(r, QuotCtx) for r in sections)
    assert any(r.lift is None for r in sections) and any(r.lift is not None for r in sections)
    # a section without a lift is only the walk's quotient of M, spun and
    # projected to: no word acts on it
    for r in sections:
        if r.lift is None:
            assert isinstance(r, QuotCtx) and r.sub.action is res.pm.ctxP and not r.word_cache
            # and acts by gathers and one small product, with no generator matrix
            assert not r._gens and all(m[-1].dtype == want for m in r._moves.values())
    assert any(r._moves for r in sections if r.lift is None)
    assert any(r.proj is not None for r in sections) and any(r._gens for r in sections)
    assert any(not isinstance(r, Section) for r in reps)
    for r in reps:
        if isinstance(r, Section):
            kept = [m for m in (r.lift, r.proj) if m is not None] + list(r._gens.values())
        else:
            kept = r.mats
        assert all(m.dtype == want for m in kept)
    assert all(nd.sub.basis.dtype == want for nd in res.lattice.nodes)
    words = [m for r in sections for m in r.word_cache.values()]
    assert words and all(m.dtype == want for m in words)
    kernels = [K for r in sections for K in r.kernel_cache.values()]
    assert kernels and all(K.dtype == want for K in kernels)
    assert res.pm._adj.dtype == res.pm._cross.dtype == want


def test_diagram_iso_positive_and_negative():
    nodes = [(), ("a",), ("b",), ("a", "b")]
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert diagram_iso(nodes, edges, [("a",), (), ("a", "b"), ("b",)],
                       [(1, 0), (1, 3), (0, 2), (3, 2)])
    # chain vs diamond with same labels
    cnodes = [(), ("a",), ("a", "b"), ("a", "b", "a")]
    cedges = [(0, 1), (1, 2), (2, 3)]
    assert not diagram_iso(nodes, edges, cnodes, cedges)


# ---------------------------------------------------------------------------
# CLI


def test_cli_points(capsys):
    rc = main(["points", "--family", "o+", "--n", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["nonsingular"] == 28 and out["singular"] == 35


def test_cli_params_unitary_dim5(capsys):
    rc = main(["params", "--family", "u", "--dim", "5"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["params"] == {"v": 176, "a": 40, "b": 135, "r": 12, "s": 8}
    assert out["roots"] == [4, -8]


def test_cli_order(capsys):
    rc = main(["order", "--family", "o+", "--n", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["order"] == "40320" and out["match"]


def test_cli_verify_pass(capsys):
    rc = main(["verify", "--family", "o+", "--n", "3", "--ell", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdict"]["match"] is True


def test_cli_verify_ell2_usage_error(capsys):
    rc = main(["verify", "--family", "o+", "--n", "3", "--ell", "2"])
    assert rc == 2


def test_cli_unknown_flag():
    rc = main(["verify", "--family", "o+", "--n", "3", "--ell", "3", "--bogus"])
    assert rc == 2


def test_cli_missing_size():
    rc = main(["points", "--family", "o+"])
    assert rc == 2


def test_cli_expect(capsys):
    rc = main(["expect", "--family", "o-", "--n", "4", "--ell", "17"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["dims"]["Y"] == 83 and out["printedDims"]["Y"] == 84
    assert out["flags"] == ["TABLE2_Y_DELTA"]


def test_cli_analyze_skip_order(capsys):
    # every report certifies its group order: no command takes --skip-order
    # (points, params, order and expect: test_cli_refuses_a_flag_the_command_ignores)
    for argv in (
        ["analyze", "--family", "o+", "--n", "3", "--ell", "5", "--skip-order"],
        ["verify", "--family", "o+", "--n", "3", "--ell", "5", "--skip-order"],
        ["suite", "--skip-order"],
    ):
        assert main(argv) == 2
        assert "unrecognized arguments: --skip-order" in capsys.readouterr().err


def test_cli_refuses_n_for_the_unitary_family(capsys):
    # --n is the orthogonal half-dimension; read as m it would name U_4(2)
    assert main(["points", "--family", "u", "--n", "4"]) == 2
    assert "give --dim for the unitary family" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["o+", "u"])
def test_cli_refuses_n_together_with_dim(capsys, family):
    assert main(["points", "--family", family, "--n", "3", "--dim", "6"]) == 2
    assert "give --n or --dim, not both" in capsys.readouterr().err


def test_cli_out_of_scale_exit(capsys):
    rc = main(["analyze", "--family", "u", "--dim", "9", "--ell", "3"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv,size_note",
    [
        (["points", "--family", "o+", "--n", "4", "--max-p-size", "100"], "|P| = 120 > 100"),
        (["params", "--family", "o+", "--n", "4", "--max-p-size", "100"], "|P| = 120 > 100"),
        (["order", "--family", "o+", "--n", "4", "--max-p-size", "100"], "|P| = 120 > 100"),
        (["verify", "--family", "o+", "--n", "4", "--ell", "3", "--max-p-size", "100"],
         "|P| = 120 > 100"),
        (["points", "--family", "u", "--dim", "9"], "|P| = 43776 > 3000"),
    ],
    ids=["points", "params", "order", "verify", "points-u9"],
)
def test_cli_max_p_size_refuses_before_enumerating(capsys, monkeypatch, argv, size_note):
    import rank3mod.analyze as analyze
    import rank3mod.cli as cli

    def refuse(space):
        raise AssertionError("points enumerated past --max-p-size")

    monkeypatch.setattr(cli, "enumerate_points", refuse)
    monkeypatch.setattr(analyze, "enumerate_points", refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: out of desk scale" in err and size_note in err
    assert "internal error" not in err


def test_cli_unexpected_error_exit(capsys, monkeypatch):
    import rank3mod.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_points", broken)
    rc = main(["points", "--family", "o+", "--n", "3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "internal error: RuntimeError: boom" in err


def test_cli_inexact_product_exits_2(capsys, monkeypatch):
    import numpy as np

    import rank3mod.cli as cli
    from rank3mod import linalg

    def too_large(args):
        return linalg.matmul(np.ones((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64), 2**31 - 1)

    monkeypatch.setattr(cli, "cmd_points", too_large)
    rc = main(["points", "--family", "o+", "--n", "3"])
    assert rc == 2
    assert "not exact" in capsys.readouterr().err


def test_cli_suite_out_writes_transcript_and_forwards_flags(capsys, monkeypatch, tmp_path):
    import rank3mod.cli as cli

    seen = []

    def fake_suite_one(item):
        seen.append(item)
        family, size, ell = item[:3]
        return {"family": family, "size": size, "ell": ell, "status": "PASS"}

    monkeypatch.setattr(cli, "SUITE_INSTANCES", [("o+", 3, 5), ("u", 4, 3)])
    monkeypatch.setattr(cli, "_suite_one", fake_suite_one)
    out = tmp_path / "suite.json"
    rc = main(["suite", "--format", "json", "--seed", "4", "--max-p-size", "500", "--out", str(out)])
    assert rc == 0
    assert seen == [("o+", 3, 5, 4, 500), ("u", 4, 3, 4, 500)]
    written = json.loads(out.read_text())
    assert written == json.loads(capsys.readouterr().out)
    assert written["allPass"] is True
    assert [r["status"] for r in written["suite"]] == ["PASS", "PASS", "OUT_OF_SCALE"]


class _InlinePool:
    """Stands in for ProcessPoolExecutor: notes max_workers, maps in process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (1000, 3)])
def test_cli_suite_pool_has_no_more_workers_than_rows(capsys, monkeypatch, jobs, workers):
    import rank3mod.cli as cli

    def fake_suite_one(item):
        family, size, ell = item[:3]
        return {"family": family, "size": size, "ell": ell, "status": "PASS"}

    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli, "SUITE_INSTANCES", [("o+", 3, 5), ("u", 4, 3), ("o-", 3, 3)])
    monkeypatch.setattr(cli, "_suite_one", fake_suite_one)
    assert main(["suite", "--format", "json", "--jobs", str(jobs)]) == 0
    assert _InlinePool.sizes == [workers]
    assert len(json.loads(capsys.readouterr().out)["suite"]) == 4


@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--jobs", "-3"), ("--seed", "-1")])
def test_cli_suite_refuses_a_flag_out_of_range(capsys, monkeypatch, flag, value):
    import rank3mod.cli as cli

    def never(item):
        raise AssertionError("no row may run")

    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli, "_suite_one", never)
    assert main(["suite", flag, value]) == 2
    assert f"{flag} must be" in capsys.readouterr().err
    assert _InlinePool.sizes == []


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--family", "o+", "--n", "3", "--ell", "3"],
        ["verify", "--family", "u", "--dim", "4", "--ell", "5"],
        ["order", "--family", "o-", "--n", "3"],
    ],
)
def test_cli_refuses_a_negative_seed_by_name(capsys, monkeypatch, argv):
    import rank3mod.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("no analysis may run")

    monkeypatch.setattr(cli, "run_analysis", never)
    monkeypatch.setattr(cli, "build_group", never)
    assert main(argv + ["--seed", "-1"]) == 2
    assert "--seed must be non-negative, not -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["points", "--family", "o+", "--n", "3"],
        ["params", "--family", "u", "--dim", "4"],
        ["order", "--family", "o-", "--n", "3"],
        ["analyze", "--family", "o+", "--n", "3", "--ell", "3"],
        ["verify", "--family", "u", "--dim", "4", "--ell", "5"],
        ["suite"],
    ],
)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_refuses_a_max_p_size_below_one_by_name(capsys, monkeypatch, argv, value):
    import rank3mod.cli as cli

    called = []

    def never(*args, **kwargs):
        called.append(args)
        raise AssertionError("no work may be done")

    for name in ("desk_scale_spec", "enumerate_points", "build_group", "run_analysis", "_suite_one"):
        monkeypatch.setattr(cli, name, never)
    assert main(argv + ["--max-p-size", value]) == 2
    assert f"--max-p-size must be positive, not {value}" in capsys.readouterr().err
    assert called == []


@pytest.mark.parametrize("error", [CertificationError, BudgetExceededError])
def test_cli_suite_reports_an_erroring_row_and_runs_the_rest(capsys, monkeypatch, tmp_path, error):
    import rank3mod.cli as cli

    def fake_run_analysis(family, size, ell, **kwargs):
        if (family, size, ell) == ("o+", 3, 5):
            raise error("no certificate")
        verdict = {"match": True, "flags": [], "diffs": []}
        report = {"verdict": verdict, "factors": [], "socleSeries": [], "timingsMs": {}}
        return SimpleNamespace(report=report)

    monkeypatch.setattr(cli, "SUITE_INSTANCES", [("o+", 3, 5), ("u", 4, 3)])
    monkeypatch.setattr(cli, "run_analysis", fake_run_analysis)
    out = tmp_path / "suite.json"
    assert main(["suite", "--format", "json", "--out", str(out)]) == 2
    written = json.loads(out.read_text())
    assert written == json.loads(capsys.readouterr().out)
    assert written["allPass"] is False
    assert [(r["family"], r["status"]) for r in written["suite"]] == [
        ("o+", "ERROR"), ("u", "PASS"), ("u", "OUT_OF_SCALE"),
    ]
    assert written["suite"][0]["note"] == "no certificate"


def test_cli_suite_text_row_shows_factors_and_socle(capsys, monkeypatch, tmp_path):
    import rank3mod.cli as cli

    monkeypatch.setattr(cli, "SUITE_INSTANCES", [("o-", 3, 3)])
    out = tmp_path / "suite.json"
    assert main(["suite", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "o- size=3 ell= 3  PASS  ",
        "    factors FF(1)x2, omega(1)x1, Z(5)x1, X(14)x2",
        "    socle (FF1 + X14) - (omega1 + Z5) - (FF1 + X14)",
    ]
    row = json.loads(out.read_text())["suite"][0]
    report = cached_analysis("o-", 3, 3).report
    assert (row["factors"], row["socleSeries"]) == (report["factors"], report["socleSeries"])


# sha256 of the indented JSON `verify` report without `timingsMs`: any change
# to factors, socle series, lattice, verdict or their order shows here
PINNED_REPORTS = [
    (["--family", "o+", "--n", "3", "--ell", "3", "--seed", "5"],
     "b1f505e972a92fbffb59770e24ff000e8c0978f3db9f0c7bb0872abd2feabfbf"),
    (["--family", "o-", "--n", "3", "--ell", "3", "--seed", "5"],
     "35b0090776179c0d015d0604d2588d59da0e2e2c7f2b5903e281034b82e4d82b"),
    (["--family", "u", "--dim", "4", "--ell", "3"],
     "89b345a11c44f4bd2f461988971b4977a849c931d2b393c481245f3e46981b4c"),
    (["--family", "u", "--dim", "5", "--ell", "5"],
     "a80ee0a2653334e936ae4e05d6b0e74f56aa3232a607eee49f1e246846db30f7"),
    # the u6-dense benchmark request
    (["--family", "u", "--dim", "6", "--ell", "3", "--seed", "5"],
     "01848205e2101fcbb07cd6455f042a6bea2902f5d7812f3a9c965ccf8d63671f"),
    # the edges of the storage dtype: the first table ell whose (ell - 1)^2
    # exceeds int8, the last int8 ell and the first int16 ell
    (["--family", "o-", "--n", "4", "--ell", "17"],
     "a3d27cd91a26e985ac21878b006f39d26b320057faff4c9fe96ad00d4ef90be2"),
    (["--family", "o-", "--n", "4", "--ell", "127"],
     "20089ab5f8a51f42a9f53e7ff0b8373eed5f1b2a7c6e3a2f6cb6674538eb6dbf"),
    (["--family", "o+", "--n", "3", "--ell", "131", "--seed", "1"],
     "d44335faadf1f7bf9070dbce703fa225b7ea555a00b7644d52dd0d245992bca1"),
]


@pytest.mark.parametrize("args,digest", PINNED_REPORTS, ids=["-".join(a[1::2]) for a, _ in PINNED_REPORTS])
def test_verify_report_is_pinned(capsys, args, digest):
    assert main(["verify", *args]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timingsMs")
    assert hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest() == digest


# seeds on which the peak-word search gave up under the word streams used
# before the word budget became one constant; kept as regression seeds
@pytest.mark.parametrize("family,seed", [("o+", 164), ("o+", 197), ("o+", 1000008), ("o-", 90)])
def test_former_peak_word_give_ups_pass(capsys, family, seed):
    args = ["--family", family, "--n", "3", "--ell", "3", "--seed", str(seed)]
    assert main(["verify", *args]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["match"]


@pytest.mark.extended
@pytest.mark.skipif(
    os.environ.get("RANK3MOD_EXTENDED") != "1",
    reason="seed scan of O+-6(2) (804 runs): set RANK3MOD_EXTENDED=1",
)
def test_seed_scan_o6(capsys):
    # no answer may depend on the seed: O+6(2) and O-6(2) at ell = 3 and 5
    # verify and match on seeds 0-199 and 1000008
    failed = []
    for family in ("o+", "o-"):
        for ell in (3, 5):
            for seed in [*range(200), 1000008]:
                args = ["--family", family, "--n", "3", "--ell", str(ell), "--seed", str(seed)]
                code = main(["verify", *args])
                out = capsys.readouterr().out
                if code != 0 or not json.loads(out)["verdict"]["match"]:
                    failed.append((family, ell, seed, code))
    assert failed == []


# sha256 over the 750 `verify` reports of test_seed_scan_below_u6, each
# without `timingsMs` as indented JSON, in scan order
SEED_SCAN_BELOW_U6_DIGEST = "a6e5ef2925c67c1005db9f549fdc7c133ec1c192f5c3dfe2e6f3d744c866090f"


@pytest.mark.extended
@pytest.mark.skipif(
    os.environ.get("RANK3MOD_EXTENDED") != "1",
    reason="seed scan of the 15 suite rows below U6(2) (750 runs): set RANK3MOD_EXTENDED=1",
)
def test_seed_scan_below_u6(capsys):
    # the 15 suite rows below U6(2) verify and match on seeds 0-49, and
    # their reports are pinned by one digest
    digest, failed = hashlib.sha256(), []
    for family, size, ell in SUITE_INSTANCES:
        if (family, size) == ("u", 6):
            continue
        for seed in range(50):
            flag = "--dim" if family == "u" else "--n"
            code = main(["verify", "--family", family, flag, str(size), "--ell", str(ell), "--seed", str(seed)])
            report = json.loads(capsys.readouterr().out)
            if code != 0 or not report["verdict"]["match"]:
                failed.append((family, size, ell, seed, code))
            report.pop("timingsMs")
            digest.update(json.dumps(report, indent=2).encode())
    assert failed == []
    assert digest.hexdigest() == SEED_SCAN_BELOW_U6_DIGEST


def test_module_work_runs_on_the_generating_pair(monkeypatch):
    seen = {}
    build_group, generating_pair = analyze.build_group, analyze.generating_pair
    rank_and_orbitals = analyze.rank_and_orbitals

    def spy_build(*args, **kwargs):
        seen["group"] = build_group(*args, **kwargs)
        return seen["group"]

    def spy_pair(*args, **kwargs):
        seen["pair"] = generating_pair(*args, **kwargs)
        return seen["pair"]

    def spy_rank(chain, points):
        seen["rank_chain"] = chain
        return rank_and_orbitals(chain, points)

    class SpyMeataxe(analyze.Meataxe):
        def __init__(self, ell, ngens, seed=0):
            seen["meataxe_gens"] = ngens
            super().__init__(ell, ngens, seed)

    monkeypatch.setattr(analyze, "build_group", spy_build)
    monkeypatch.setattr(analyze, "generating_pair", spy_pair)
    monkeypatch.setattr(analyze, "rank_and_orbitals", spy_rank)
    monkeypatch.setattr(analyze, "Meataxe", SpyMeataxe)
    res = run_analysis("o-", 3, 3, seed=5)
    assert len(seen["group"].mats) > 2
    # rank 3 is read off the chain that certifies the pair
    pair, chain = seen["pair"]
    assert seen["rank_chain"] is chain
    assert seen["meataxe_gens"] == 2
    assert res.pm.ctxP.ngens == res.pm.ctxP0.ngens == 2
    for k, p in enumerate(pair):
        assert np.array_equal(res.pm.ctxP.perms[k], p.on_P)
        assert np.array_equal(res.pm.ctxP0.perms[k], p.on_P0)


def _first_of_pair(pair, chain):
    return [pair[0].on_P]


def _stabiliser_of_base(pair, chain):
    return [g for lev in chain.levels[1:] for g in lev.gens]


@pytest.mark.parametrize("family,size", [("o+", 3), ("u", 4)])
@pytest.mark.parametrize("subgroup", [_first_of_pair, _stabiliser_of_base])
def test_rank_check_refuses_a_chain_on_a_proper_subgroup(monkeypatch, family, size, subgroup):
    # given a chain on a proper subgroup, run_analysis stops before the module work
    generating_pair = analyze.generating_pair

    def proper_chain(gd, points, seed=0):
        pair, chain = generating_pair(gd, points, seed=seed)
        sub = StabilizerChain(points.nP, seed=seed)
        for g in subgroup(pair, chain):
            sub.add_generator(g)
        return pair, sub

    monkeypatch.setattr(analyze, "generating_pair", proper_chain)
    with pytest.raises(CertificationError, match="rank-3 certification failed"):
        run_analysis(family, size, 3, seed=1)


# ---------------------------------------------------------------------------
# each command takes only the flags it reads

O6 = ["--family", "o+", "--n", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["order", *O6, "--skip-order"],
        ["points", *O6, "--seed", "1"],
        ["points", *O6, "--skip-order"],
        ["params", *O6, "--seed", "1"],
        ["params", *O6, "--skip-order"],
        ["expect", *O6, "--ell", "5", "--seed", "9"],
        ["expect", *O6, "--ell", "5", "--max-p-size", "1"],
        ["expect", *O6, "--ell", "5", "--skip-order"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2] if argv[-1].isdigit() else argv[-1]}",
)
def test_cli_refuses_a_flag_the_command_ignores(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["points", *O6, "--max-p-size", "100", "--format", "text"],
        ["params", "--family", "o+", "--dim", "6", "--max-p-size", "100", "--format", "text"],
        ["order", *O6, "--seed", "7", "--max-p-size", "100", "--format", "text"],
        ["expect", *O6, "--ell", "5", "--format", "text"],
        ["analyze", *O6, "--ell", "5", "--seed", "1", "--max-p-size", "100", "--format", "text"],
        ["verify", *O6, "--ell", "5", "--seed", "1", "--max-p-size", "100", "--format", "text"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_accepts_the_flags_the_command_reads(capsys, argv):
    assert main(argv) == 0


# ---------------------------------------------------------------------------
# the incidence matrices are built only when read


def _record_incidences(monkeypatch) -> list[int]:
    """Patch the incidence builder to log |V| of each matrix it builds."""
    built = []
    real = geometry._orthogonal

    def record(space, U, V):
        built.append(V.shape[1])
        return real(space, U, V)

    monkeypatch.setattr(geometry, "_orthogonal", record)
    return built


@pytest.mark.parametrize("command", ["order", "points"])
@pytest.mark.parametrize("size", [["--family", "o+", "--n", "4"], ["--family", "u", "--dim", "5"]],
                         ids=["o+8", "u5"])
def test_order_and_points_build_no_incidence(capsys, monkeypatch, command, size):
    def refuse(*args):
        raise AssertionError("an incidence matrix was built")

    monkeypatch.setattr(geometry, "_orthogonal", refuse)
    assert main([command, *size]) == 0


def test_params_builds_the_adjacency_only(capsys, monkeypatch):
    built = _record_incidences(monkeypatch)
    assert main(["params", "--family", "o+", "--n", "4"]) == 0
    assert built == [120]  # |P| = 120, |P0| = 135


def test_one_analysis_builds_each_incidence_once(monkeypatch):
    built = _record_incidences(monkeypatch)
    run_analysis("o+", 3, 3, seed=5)
    assert sorted(built) == [28, 35]  # |P|, |P0|


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the Linux VmHWM")
def test_order_peak_memory_stays_small():
    # The child's own peak is the high-water mark of its own address space
    # (VmHWM).  Its ru_maxrss would not do: Linux carries into it the peak of
    # the address space that exec replaced, here this test process's, and
    # RUSAGE_CHILDREN would carry other tests' children.
    code = (
        "import contextlib, io\n"
        "from rank3mod.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['order', '--family', 'o+', '--n', '6', '--seed', '1'])\n"
        "hwm = next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:'))\n"
        "print(rc, hwm.split()[1])\n"
    )
    src = str(Path(rank3mod.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=600)
    rc, peak_kib = map(int, out.stdout.split())
    assert rc == 0
    assert peak_kib / 1024 < 96  # MiB; 133 when every request built both incidences


# ---------------------------------------------------------------------------
# the modules-phase and lattice checks, read off their witnesses


def _o6_ell5():
    pm = cached_pm("o+", 6, 5)
    params = closed_params(SpaceSpec("o+", 6))
    return pm, params, quadratic_roots(params)


def _with_cross(pm, C, perms_P=None, perms_P0=None):
    """A copy of pm with the cross incidence C, and the given generators."""
    fake = copy.copy(pm)
    fake._cross = linalg.asmat(C, pm.ell)
    if perms_P is not None:
        fake.ctxP = ModCtx(pm.ell, perms_P)
        fake.ctxP0 = ModCtx(pm.ell, perms_P0)
    return fake


def test_graph_operator_checks_refuse_a_degenerate_q_image():
    pm, _params, _roots = _o6_ell5()
    analyze._graph_operator_checks(pm)
    nP, nP0 = pm._cross.shape
    # constant incidences are the only generator-invariant degenerate ones
    for fill in (0, 1):
        with pytest.raises(CertificationError, match="zero-sum module under Q degenerate"):
            analyze._graph_operator_checks(_with_cross(pm, np.full((nP, nP0), fill)))
    # with trivial generators, any C = u 1^T + 1 w^T: row differences constant
    rng = np.random.default_rng(2)
    u, w = rng.integers(0, 5, size=(nP, 1)), rng.integers(0, 5, size=(1, nP0))
    ident = [np.arange(nP)] * 2, [np.arange(nP0)] * 2
    with pytest.raises(CertificationError, match="zero-sum module under Q degenerate"):
        analyze._graph_operator_checks(_with_cross(pm, u + w, *ident))
    # one entry off that form breaks it, and both images are then non-degenerate
    C = u + w
    C[3, 4] += 1
    analyze._graph_operator_checks(_with_cross(pm, C, *ident))


def test_graph_operator_checks_refuse_a_degenerate_r_image(monkeypatch):
    # constant column differences say C = u 1^T + 1 w^T too, so Q's test
    # refuses every such C first; R's is reached only past a passing Q test
    pm, _params, _roots = _o6_ell5()
    rng = np.random.default_rng(3)
    for _ in range(20):
        C = rng.integers(0, 5, size=(6, 7))
        assert analyze._image_in_ones(C, 5) == analyze._image_in_ones(C.T, 5)
        C = rng.integers(0, 5, size=(6, 1)) + rng.integers(0, 5, size=(1, 7))
        assert analyze._image_in_ones(C, 5) and analyze._image_in_ones(C.T, 5)
    real, calls = analyze._image_in_ones, []

    def q_passes(M, ell):
        calls.append(M.shape)
        return len(calls) > 1 and real(M, ell)

    monkeypatch.setattr(analyze, "_image_in_ones", q_passes)
    nP, nP0 = pm._cross.shape
    with pytest.raises(CertificationError, match="singular zero-sum module under R degenerate"):
        analyze._graph_operator_checks(_with_cross(pm, np.ones((nP, nP0))))
    assert calls == [(nP, nP0), (nP0, nP)]


def _node_of(pm, ident, rows):
    basis, piv = linalg.rref(rows, pm.ell)
    return LatticeNode(ident, Submodule(pm.ctxP, basis, piv), Counter())


def test_lattice_checks_refuse_a_perp_swapped_for_a_subspace_that_is_not_orthogonal(monkeypatch):
    # O+6(2), ell = 5: the boolean lattice of 1, 7 and 20; swap the perp of
    # the dim-7 node for its span with one row replaced by a vector of the
    # node, so that the product with the node has rank 1 and one random probe
    # misses it one time in five.  Whichever of the two comes first matches 0.
    pm, _params, roots = _o6_ell5()
    lat = cached_analysis("o+", 3, 5).lattice
    analyze._lattice_checks(pm, lat, roots, 0)
    (seven,) = [n for n in lat.nodes if n.dim == 7]
    (perp,) = [n for n in lat.nodes if n.dim == 21]
    rows = perp.sub.basis.copy()
    rows[-1] = seven.sub.basis[0]
    swapped = _node_of(pm, perp.ident, rows)
    assert swapped.dim == 21 and linalg.matmul(seven.sub.basis, swapped.sub.basis.T, 5).any()
    tampered = Lattice([swapped if n is perp else n for n in lat.nodes], lat.edges)
    full = []
    matmul = linalg.matmul

    def counted(A, B, ell):  # the full product of the two, either way round
        full.append(A.shape[0] in (7, 21) and A.shape[0] + B.shape[1] == 28)
        return matmul(A, B, ell)

    monkeypatch.setattr(linalg, "matmul", counted)
    ran_full = []
    for seed in range(12):
        full.clear()
        with pytest.raises(CertificationError, match="perp of a dim-(7|21) lattice node matched 0 nodes"):
            analyze._lattice_checks(pm, tampered, roots, seed)
        ran_full.append(any(full))
    # the probe alone refused some seeds, the full product the others
    assert any(ran_full) and not all(ran_full)


def test_lattice_checks_count_a_self_perp_node_once():
    # each pair is tested once: a totally isotropic half-dimensional node is
    # its own perp and matches 1 node, so the perp matching passes and the
    # graph-submodule test is the one to refuse it
    pm, _params, roots = _o6_ell5()
    half = np.zeros((14, 28), dtype=np.int64)
    half[np.arange(14), 2 * np.arange(14)] = 1
    half[np.arange(14), 2 * np.arange(14) + 1] = 2  # 1 + 2 * 2 = 0 mod 5
    nodes = [
        _node_of(pm, 0, np.zeros((0, 28), dtype=np.int64)),
        _node_of(pm, 1, half),
        _node_of(pm, 2, np.eye(28, dtype=np.int64)),
    ]
    with pytest.raises(CertificationError, match="lattice node of dim 14 contains no graph submodule"):
        analyze._lattice_checks(pm, Lattice(nodes, []), roots, 0)
    twice = Lattice([*nodes[:2], _node_of(pm, 3, half), nodes[2]], [])
    with pytest.raises(CertificationError, match="perp of a dim-14 lattice node matched 2 nodes"):
        analyze._lattice_checks(pm, twice, roots, 0)


def test_lattice_checks_refuse_a_node_that_misses_the_graph_seeds():
    # a line and its perp pass the perp matching; the line is no submodule,
    # and lacks both seeds of U'_c, or has one of them only
    pm, _params, roots = _o6_ell5()
    ones = np.ones((1, 28), dtype=np.int64)
    rng = np.random.default_rng(4)
    for line in (rng.integers(0, 5, size=(1, 28)), pm.graph_seeds(roots[0])[:1]):
        assert not linalg.in_rowspace(ones, *linalg.rref(line, 5), 5)
        nodes = [
            _node_of(pm, 0, np.zeros((0, 28), dtype=np.int64)),
            _node_of(pm, 1, line),
            _node_of(pm, 2, linalg.nullspace(line, 5)),
            _node_of(pm, 3, np.eye(28, dtype=np.int64)),
        ]
        with pytest.raises(CertificationError, match="lattice node of dim 1 contains no graph submodule"):
            analyze._lattice_checks(pm, Lattice(nodes, []), roots, 0)


def test_every_function_in_src_is_named_elsewhere_in_src():
    # no function that only tests call: each one defined in the package is
    # named (called, referenced or imported) somewhere in its code
    defined, named = [], Counter()
    for path in sorted(Path(rank3mod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.alias):
                named[node.name] += 1
    assert len(defined) > 100
    assert [name for name in defined if not named[name.split(".")[1]]] == []


def test_every_stored_attribute_is_read():
    # no unread state: each dataclass field and each `self.<name> =` of a
    # class in the package is loaded as `.<name>` in its code or its tests
    src = Path(rank3mod.__file__).parent
    stored, loaded = set(), Counter()
    for path in sorted(src.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                stored.update(
                    f"{cls.name}.{st.target.id}"
                    for st in cls.body
                    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                )
            stored.update(
                f"{cls.name}.{node.attr}"
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            )
    for path in [*src.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded[node.attr] += 1
    assert len(stored) > 90
    assert sorted(name for name in stored if not loaded[name.split(".")[1]]) == []
