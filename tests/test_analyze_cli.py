import json

import pytest

from rank3mod.analyze import diagram_iso, run_analysis, verify_result
from rank3mod.cli import main
from rank3mod.errors import OutOfScaleError

from conftest import cached_analysis

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
    layers_raw = res.meataxe.socle_series(res.pm.ctxP)
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
    rc = main(["analyze", "--family", "o+", "--n", "3", "--ell", "5", "--skip-order"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["group"]["order"] == "skipped"
    assert out["group"]["formulaOrder"] == "40320"
    assert out["verdict"]["match"]


def test_cli_out_of_scale_exit(capsys):
    rc = main(["analyze", "--family", "u", "--dim", "9", "--ell", "3"])
    assert rc == 2


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


def test_cli_verify_ell_above_int8(capsys):
    # F_131 residues do not fit int8; the stored matrices widen to int16
    rc = main(["verify", "--family", "o+", "--n", "3", "--ell", "131", "--seed", "1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdict"]["match"] is True


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
    rc = main(["suite", "--format", "json", "--seed", "4", "--max-p-size", "500",
               "--skip-order", "--out", str(out)])
    assert rc == 0
    assert seen == [("o+", 3, 5, 4, 500, True), ("u", 4, 3, 4, 500, True)]
    written = json.loads(out.read_text())
    assert written == json.loads(capsys.readouterr().out)
    assert written["allPass"] is True
    assert [r["status"] for r in written["suite"]] == ["PASS", "PASS", "OUT_OF_SCALE"]
