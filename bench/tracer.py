"""Span recorder for the traced run.

The layers' public functions and methods are wrapped at run time from here,
so the program itself carries no tracing code.  A function is wrapped under
every name any `rank3mod` module holds it by (`analyze` imports
`build_group` by name, `meataxe` imports `spin` and `factor_poly`, `cli`
imports `run_analysis`), and the originals are put back by `uninstall()`.

Each span has an id, a name, a start, an end, its parent's id and the
request it belongs to.  Counts and sizes are computed from the arguments and
the return value at the call boundary, after the span's end is taken.  Spans
stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    attrs: dict | None


def _matmul_size(args, out) -> dict:
    A, B = args[0], args[1]
    m, k = A.shape
    return {
        "flops": 2 * m * k * B.shape[1],
        "bytes": A.nbytes + B.nbytes + out.nbytes,
    }


def _degree(f) -> int:
    nz = np.nonzero(np.asarray(f))[0]
    return int(nz[-1]) if len(nz) else -1


# (module, function, span name, measure(args, return value) -> attrs)
FUNCTIONS: list[tuple[str, str, str, Callable | None]] = [
    ("rank3mod.cli", "main", "cli.main", None),
    ("rank3mod.analyze", "run_analysis", "analyze.run_analysis", None),
    ("rank3mod.analyze", "verify_result", "analyze.verify_result", None),
    ("rank3mod.expected", "expected", "expected", None),
    ("rank3mod.geometry", "enumerate_points", "geometry.enumerate_points",
     lambda a, ps: {"points": ps.nP + ps.nP0}),
    ("rank3mod.geometry", "brute_params", "geometry.brute_params", None),
    ("rank3mod.groups", "build_group", "groups.build_group",
     lambda a, gd: {"generators": len(gd.mats)}),
    ("rank3mod.groups", "induced_perm", "groups.induced_perm", None),
    ("rank3mod.groups", "rank_and_orbitals", "groups.rank_and_orbitals", None),
    ("rank3mod.modules", "spin", "modules.spin",
     lambda a, sub: {"rows": 0 if sub is None else sub.dim, "capped": int(sub is None)}),
    ("rank3mod.meataxe", "krylov_annihilator", "meataxe.krylov", None),
    ("rank3mod.polys", "factor_poly", "polys.factor_poly",
     lambda a, out: {"degree": _degree(a[0])}),
    ("rank3mod.linalg", "matmul", "linalg.matmul", _matmul_size),
    ("rank3mod.linalg", "rref", "linalg.rref",
     lambda a, out: {"cells": int(np.prod(np.shape(a[0])))}),
    ("rank3mod.linalg", "rank", "linalg.rank", None),
    ("rank3mod.linalg", "nullspace", "linalg.nullspace", None),
    ("rank3mod.linalg", "reduce_rows", "linalg.reduce_rows", None),
    ("rank3mod.linalg", "in_rowspace", "linalg.in_rowspace", None),
    ("rank3mod.linalg", "rowspace_sum", "linalg.rowspace_sum", None),
    ("rank3mod.linalg", "rowspace_intersect", "linalg.rowspace_intersect", None),
]

# (module, class, method, span name, measure)
METHODS: list[tuple[str, str, str, str, Callable | None]] = [
    ("rank3mod.groups", "StabilizerChain", "verify", "groups.verify", None),
    ("rank3mod.modules", "Submodule", "certify_closed", "modules.certify_closed", None),
    ("rank3mod.modules", "QuotCtx", "__init__", "modules.quotient", None),
    ("rank3mod.meataxe", "Meataxe", "chop", "meataxe.chop", None),
    ("rank3mod.meataxe", "Meataxe", "socle_series", "meataxe.socle_series", None),
    ("rank3mod.meataxe", "Meataxe", "lattice", "meataxe.lattice",
     lambda a, lat: {"nodes": len(lat.nodes)}),
    # is_iso and register both go through is_iso_rep
    ("rank3mod.meataxe", "Meataxe", "is_iso_rep", "meataxe.is_iso", None),
    ("rank3mod.meataxe", "Word", "matrix", "meataxe.word_matrix", None),
]

# Per-layer metrics: (name, unit, better).  `<span>.calls` counts spans,
# `<span>.s` sums their self time, `<span>.<attr>` sums a computed attribute.
METRICS: list[tuple[str, str, str]] = [
    ("geometry.enumerate_points.s", "s", "lower"),
    ("geometry.brute_params.s", "s", "lower"),
    ("geometry.points", "count", "lower"),
    ("groups.build_group.calls", "count", "lower"),
    ("groups.build_group.s", "s", "lower"),
    ("groups.verify.s", "s", "lower"),
    ("groups.sift.calls", "count", "lower"),
    ("groups.sift.useful", "count", "higher"),
    ("groups.sift.useful_ratio", "ratio", "higher"),
    ("groups.candidates", "count", "lower"),
    ("groups.generators", "count", "lower"),
    ("groups.induced_perm.s", "s", "lower"),
    ("groups.rank_and_orbitals.s", "s", "lower"),
    ("modules.spin.calls", "count", "lower"),
    ("modules.spin.s", "s", "lower"),
    ("modules.spin.rows", "count", "lower"),
    ("modules.spin.capped", "count", "lower"),
    ("modules.certify_closed.s", "s", "lower"),
    ("modules.quotient.calls", "count", "lower"),
    ("meataxe.chop.s", "s", "lower"),
    ("meataxe.socle_series.s", "s", "lower"),
    ("meataxe.lattice.s", "s", "lower"),
    ("meataxe.lattice.nodes", "count", "lower"),
    ("meataxe.krylov.calls", "count", "lower"),
    ("meataxe.krylov.s", "s", "lower"),
    ("meataxe.word_matrix.calls", "count", "lower"),
    ("meataxe.word_matrix.s", "s", "lower"),
    ("meataxe.is_iso.calls", "count", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.s", "s", "lower"),
    ("linalg.matmul.flops", "flop", "lower"),
    ("linalg.matmul.bytes", "B", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.reduce_rows.calls", "count", "lower"),
    ("linalg.s", "s", "lower"),
    ("polys.factor_poly.calls", "count", "lower"),
    ("polys.factor_poly.s", "s", "lower"),
    ("polys.factor_poly.degree", "count", "lower"),
    ("expected.s", "s", "lower"),
    ("analyze.run_analysis.s", "s", "lower"),
    ("analyze.verify_result.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
]


class Tracer:
    """Wraps the program's layers and records one span per wrapped call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.request: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self._identity: dict[int, np.ndarray] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            out, ok = None, False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                attrs = measure(args, out) if ok and measure else None
                self.spans.append(Span(sid, name, start, end, parent, self.request, attrs))

        return traced

    def _counted_sift(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def sift(chain, p):
            res, level = fn(chain, p)
            ident = self._identity.get(chain.degree)
            if ident is None:
                ident = self._identity[chain.degree] = np.arange(chain.degree)
            self.counters["groups.sift.calls"] += 1
            if not np.array_equal(res, ident):
                self.counters["groups.sift.useful"] += 1
            return res, level

        return sift

    def _counted_candidates(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def candidates(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters["groups.candidates"] += 1
                yield item

        return candidates

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method of the imported program."""
        for modname, fname, span, measure in FUNCTIONS:
            fn = getattr(sys.modules[modname], fname)
            self._replace_everywhere(fn, self.wrap(span, fn, measure))
        groups = sys.modules["rank3mod.groups"]
        fn = groups.candidate_generators
        self._replace_everywhere(fn, self._counted_candidates(fn))
        chain = groups.StabilizerChain
        self._set(chain, "sift", self._counted_sift(chain.__dict__["sift"]))
        for modname, cls_name, meth, span, measure in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            self._set(cls, meth, self.wrap(span, cls.__dict__[meth], measure))

    def _replace_everywhere(self, fn: Callable, replacement: Callable) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "rank3mod" and not modname.startswith("rank3mod."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, replacement)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, after one header line of counters."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for sp in sorted(self.spans):
                fh.write(json.dumps(sp._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        lo = hi = sp.start
        for s, e in sorted(children[sp.id]):
            s, e = max(s, sp.start), min(e, sp.end)
            if e <= s:
                continue
            if s > hi:
                covered += hi - lo
                lo = s
            hi = max(hi, e)
        covered += hi - lo
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def layer_metrics(spans: list[Span], counters: Counter) -> dict[str, dict]:
    """Every METRICS entry, from the spans and counters of one traced run."""
    selfs = self_times(spans)
    values: Counter = Counter(counters)
    for sp in spans:
        values[f"{sp.name}.calls"] += 1
        values[f"{sp.name}.s"] += selfs[sp.id]
        if sp.name.startswith("linalg."):
            values["linalg.s"] += selfs[sp.id]
        for key, val in (sp.attrs or {}).items():
            values[f"{sp.name}.{key}"] += val
    # these counts are attributes of the spans that compute them
    values["geometry.points"] = values["geometry.enumerate_points.points"]
    values["groups.generators"] = values["groups.build_group.generators"]
    sifts = values["groups.sift.calls"]
    values["groups.sift.useful_ratio"] = values["groups.sift.useful"] / sifts if sifts else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
