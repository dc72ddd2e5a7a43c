"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import calibrate
import oracle
import workloads
from tracer import METRICS, Span, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "cli.main", 0.0, 10.0, None, "0.0", None),
        Span(1, "linalg.rref", 1.0, 3.0, 0, "0.0", {"cells": 6}),
        Span(2, "linalg.matmul", 1.5, 2.5, 1, "0.0", {"flops": 8, "bytes": 24}),
        # overlaps span 1: the parent loses the union [1, 5], not 2 + 3
        Span(3, "modules.spin", 2.0, 5.0, 0, "0.0", {"rows": 4, "capped": 0}),
        # sticks out of its parent: only [6, 10] counts against it
        Span(4, "linalg.matmul", 6.0, 11.0, 0, "0.0", {"flops": 2, "bytes": 8}),
    ]
    assert self_times(spans) == pytest.approx({0: 10 - 4 - 4, 1: 1.0, 2: 1.0, 3: 3.0, 4: 5.0})
    m = layer_metrics(spans, Counter({"groups.sift.calls": 4, "groups.sift.useful": 1}))
    assert m["cli.main.s"]["value"] == pytest.approx(2.0)
    assert m["linalg.s"]["value"] == pytest.approx(1.0 + 1.0 + 5.0)
    assert m["linalg.matmul.calls"]["value"] == 2
    assert m["linalg.matmul.flops"]["value"] == 10
    assert m["linalg.rref.cells"]["value"] == 6
    assert m["modules.spin.rows"]["value"] == 4
    assert m["groups.sift.useful_ratio"]["value"] == 0.25
    assert m["meataxe.chop.s"]["value"] == 0
    assert set(m) == {name for name, _, _ in METRICS}


@pytest.mark.parametrize(
    "family, dim, counts",
    [
        ("o+", 6, (28, 35)), ("o-", 6, (36, 27)), ("o+", 8, (120, 135)), ("o-", 8, (136, 119)),
        ("u", 4, (40, 45)), ("u", 5, (176, 165)), ("u", 6, (672, 693)),
    ],
)
def test_oracle_point_counts(family, dim, counts):
    assert oracle.point_counts(family, dim) == counts


def test_oracle_refuses_large_spaces():
    with pytest.raises(ValueError):
        oracle.point_counts("u", 7)


@pytest.mark.parametrize(
    "family, dim, order",
    [("o+", 6, 40320), ("o-", 6, 51840), ("u", 4, 77760), ("u", 5, 41057280)],
)
def test_oracle_group_orders(family, dim, order):
    assert oracle.group_order(family, dim) == order


O6_REPORT = {
    "input": {"family": "o+", "m": 6, "n": 3, "ell": 3, "seed": 0},
    "points": {"nonsingular": 28, "singular": 35},
    "params": {"v": 28, "a": 12, "b": 15, "r": 6, "s": 4},
    "roots": [2, -4],
    "group": {"order": "40320", "formulaOrder": "40320", "rank": 3, "suborbits": [1, 12, 15]},
    "factors": [
        {"label": "FF", "dim": 1, "mult": 1}, {"label": "X", "dim": 7, "mult": 2},
        {"label": "Z", "dim": 13, "mult": 1},
    ],
    "socleSeries": [
        [{"label": "FF", "dim": 1}, {"label": "X", "dim": 7}],
        [{"label": "Z", "dim": 13}], [{"label": "X", "dim": 7}],
    ],
    "lattice": {
        "nodes": [{"id": f"n{i}", "dim": d} for i, d in enumerate([0, 1, 7, 8, 20, 21, 27, 28])],
        "edges": [["n0", "n1"], ["n0", "n2"], ["n1", "n3"], ["n2", "n3"], ["n2", "n4"],
                  ["n3", "n5"], ["n4", "n5"], ["n4", "n6"], ["n5", "n7"], ["n6", "n7"]],
    },
    "verdict": {"match": True, "flags": [], "diffs": []},
}
O6_ARGV = ["verify", "--family", "o+", "--n", "3", "--ell", "3", "--seed", "0"]


def _tampered(path: list, value) -> dict:
    rep = copy.deepcopy(O6_REPORT)
    node = rep
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return rep


def test_oracle_passes_a_correct_report():
    assert oracle.check(O6_ARGV, O6_REPORT) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (["points", "singular"], 36),
        (["group", "order"], "40321"),
        (["params", "s"], 5),
        (["roots"], [2, -3]),
        (["factors", 1, "mult"], 1),
        (["socleSeries", 2], []),
        (["lattice", "nodes", 2, "dim"], 6),
        (["lattice", "edges", 0], ["n1", "n0"]),
        (["verdict", "match"], False),
        (["input", "seed"], 1),
    ],
)
def test_oracle_catches_a_wrong_report(path, value):
    assert oracle.check(O6_ARGV, _tampered(path, value))


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [tuple(m) for m in METRICS]


def test_calibration_kernel_does_fixed_work():
    # the same inputs and the same result every time, whatever the seed of the run
    assert calibrate.kernel() == calibrate.kernel() == 720441
    assert calibrate.sample() > 0


def test_speed_probe_scales_by_the_samples_near_a_request():
    probe = calibrate.SpeedProbe()
    probe.times, probe.samples = [0.0, 1.0, 2.0, 5.0], [0.05, 0.10, 0.10, 0.025]
    ref = calibrate.REF_KERNEL_S
    assert probe.scale(1.5, 1.8) == pytest.approx(ref / 0.10)  # the samples at 1.0 and 2.0
    assert probe.scale(3.5, 3.6) == pytest.approx(ref / 0.025)  # none near: the nearest one
    assert probe.scale() == pytest.approx(ref / 0.06875)


def test_speed_probe_takes_its_own_time_out_of_its_clock():
    with calibrate.SpeedProbe() as probe:
        t0, c0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - t0 < 1.5:
            pass
        elapsed, clocked = time.perf_counter() - t0, probe.clock() - c0
    assert probe.samples
    assert clocked == pytest.approx(elapsed - sum(probe.samples), abs=1e-3)


def _traced_request(argv: list[str]) -> Tracer:
    sys.path.insert(0, str(ROOT / "src"))
    from rank3mod import analyze, cli, groups, meataxe, modules

    tracer = Tracer()
    originals = (cli.main, analyze.build_group, groups.build_group, meataxe.spin, modules.spin)
    tracer.install()
    try:
        # a name imported into another module is wrapped there too
        assert analyze.build_group is groups.build_group is not originals[2]
        assert meataxe.spin is modules.spin is not originals[4]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, analyze.build_group, groups.build_group, meataxe.spin, modules.spin) == originals
    return tracer


def test_traced_counts_repeat_exactly():
    runs = [_traced_request(O6_ARGV) for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in layer_metrics(t.spans, t.counters).items() if not k.endswith(".s")}
        for t in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["groups.build_group.calls"] == 1
    assert counts[0]["geometry.points"] == 63
    spans = runs[0].spans
    roots = [sp for sp in spans if sp.parent is None]
    assert [sp.name for sp in roots] == ["cli.main"]
    assert all(sp.start <= sp.end for sp in spans)


def test_requests_carry_the_workload_seed_unless_fixed():
    reqs = workloads.requests("table-rows", 42)
    assert all(argv.count("--seed") == 1 for argv in reqs)
    seeds = [argv[argv.index("--seed") + 1] for argv in reqs]
    assert seeds.count("42") == 13
    assert seeds.count(str(workloads.FIXED_SEED)) == 2
    assert reqs[-1] == workloads.KNOWN_FAILURE
    geometries = [tuple(argv[2:5]) for argv in workloads.TABLE_ROWS[:-1]]
    assert len(geometries) == 15 and len(set(geometries)) == 6  # 9 of 15 reuse a geometry
