"""Command-line interface.

Subcommands: points, params, order, analyze, expect, verify, suite.
Exit codes: 0 pass, 1 structural mismatch, 2 usage or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

from .analyze import DEFAULT_MAX_P, canon_size, desk_scale_spec, run_analysis
from .errors import BudgetExceededError, CertificationError, OutOfScaleError
from .expected import expected
from .fields import is_odd_prime
from .geometry import (
    OMINUS,
    OPLUS,
    UNITARY,
    brute_params,
    build_space,
    closed_params,
    enumerate_points,
    quadratic_roots,
)
from .groups import build_group

SUITE_INSTANCES = [
    (OPLUS, 3, 5), (OPLUS, 3, 7), (OPLUS, 3, 3), (OPLUS, 4, 3),
    (OMINUS, 3, 5), (OMINUS, 3, 7), (OMINUS, 3, 3), (OMINUS, 4, 3), (OMINUS, 4, 17),
    (UNITARY, 4, 7), (UNITARY, 4, 5), (UNITARY, 4, 3),
    (UNITARY, 5, 5), (UNITARY, 5, 11), (UNITARY, 5, 3),
    (UNITARY, 6, 3),
]
EXTENDED_INSTANCES = [(UNITARY, 7, 3)]
OUT_OF_SCALE_INSTANCES = [(UNITARY, 9, 3)]


def _add_common(p: argparse.ArgumentParser, ell=False, seed=False, max_p=True):
    """The flags of one command; a command gets only those it reads."""
    p.add_argument("--family", required=True, choices=[OPLUS, OMINUS, UNITARY])
    p.add_argument("--dim", type=int, help="ambient dimension m")
    p.add_argument("--n", type=int, help="half-dimension n (orthogonal families)")
    if ell:
        p.add_argument("--ell", type=int, required=True, help="odd prime coefficient characteristic")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if max_p:
        p.add_argument("--max-p-size", type=int, default=DEFAULT_MAX_P)
    p.add_argument("--format", choices=["json", "text"], default="json")


def _size_of(args) -> int:
    """CLI size convention: n (--n, or --dim = 2n) for orthogonal, m (--dim) for unitary."""
    if args.n is not None and args.dim is not None:
        raise ValueError("give --n or --dim, not both")
    if args.family in (OPLUS, OMINUS):
        if args.n is not None:
            return args.n
        if args.dim is not None:
            if args.dim % 2:
                raise ValueError("orthogonal families need an even --dim")
            return args.dim // 2
        raise ValueError("give --n or --dim")
    if args.dim is None:
        raise ValueError("give --dim for the unitary family (--n is for the orthogonal families)")
    return args.dim


def _check_ell(ell: int):
    if not is_odd_prime(ell):
        raise ValueError(f"ell must be an odd prime, got {ell}")


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        _emit_text(payload)


def _emit_text(payload: dict, indent: str = ""):
    for key, val in payload.items():
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], (dict, list)):
            print(f"{indent}{key}: {json.dumps(val)}")
        else:
            print(f"{indent}{key}: {val}")


def cmd_points(args) -> int:
    spec = desk_scale_spec(args.family, _size_of(args), args.max_p_size)
    ps = enumerate_points(build_space(spec))
    _emit({"family": args.family, "m": spec.dim, "nonsingular": ps.nP, "singular": ps.nP0}, args.format)
    return 0


def cmd_params(args) -> int:
    spec = desk_scale_spec(args.family, _size_of(args), args.max_p_size)
    cp = closed_params(spec)
    ps = enumerate_points(build_space(spec))
    bp = brute_params(ps)
    roots = quadratic_roots(cp)
    _emit(
        {
            "family": args.family,
            "m": spec.dim,
            "params": {"v": cp.v, "a": cp.a, "b": cp.b, "r": cp.r, "s": cp.s},
            "roots": list(roots),
            "bruteMatchesClosed": bp == cp,
        },
        args.format,
    )
    return 0 if bp == cp else 1


def cmd_order(args) -> int:
    spec = desk_scale_spec(args.family, _size_of(args), args.max_p_size)
    space = build_space(spec)
    ps = enumerate_points(space)
    gd = build_group(space, ps, seed=args.seed)
    match = gd.order == gd.formula_order
    _emit(
        {
            "family": args.family,
            "m": spec.dim,
            "order": str(gd.order),
            "formulaOrder": str(gd.formula_order),
            "match": match,
        },
        args.format,
    )
    return 0 if match else 1


def cmd_expect(args) -> int:
    _check_ell(args.ell)
    exp = expected(args.family, _size_of(args), args.ell)
    payload = {
        "family": exp.family,
        "size": exp.size,
        "ell": exp.ell,
        "row": exp.row,
        "dims": exp.dims,
        "printedDims": exp.printed_dims,
        "factors": dict(exp.factors),
        "socle": [dict(c) for c in exp.socle] if exp.socle else None,
        "latticeNodes": [list(nd) for nd in exp.lattice_nodes] if exp.lattice_nodes else None,
        "latticeEdges": exp.lattice_edges,
        "flags": exp.flags,
        "note": exp.note,
    }
    _emit(payload, args.format)
    return 0


def _analyze(args) -> bool:
    """Run and print one analysis; returns whether it matches the tables."""
    _check_ell(args.ell)
    res = run_analysis(args.family, _size_of(args), args.ell, seed=args.seed, max_p=args.max_p_size)
    _emit(res.report, args.format)
    return res.report["verdict"]["match"]


def cmd_analyze(args) -> int:
    _analyze(args)
    return 0


def cmd_verify(args) -> int:
    return 0 if _analyze(args) else 1


def _suite_one(item):
    family, size, ell, seed, max_p = item
    try:
        res = run_analysis(family, size, ell, seed=seed, max_p=max_p)
        verdict = res.report["verdict"]
        status = "PASS" if verdict["match"] else "FAIL"
        return {
            "family": family, "size": size, "ell": ell, "status": status,
            "flags": verdict["flags"], "diffs": verdict["diffs"],
            "factors": res.report["factors"], "socleSeries": res.report["socleSeries"],
            "timingsMs": res.report["timingsMs"],
        }
    except OutOfScaleError as exc:
        return {"family": family, "size": size, "ell": ell, "status": "OUT_OF_SCALE", "note": str(exc)}
    except (CertificationError, BudgetExceededError) as exc:
        # reported in the row; the other rows still run
        return {"family": family, "size": size, "ell": ell, "status": "ERROR", "note": str(exc)}


def _print_suite_row(r: dict) -> None:
    """One text row, and under an analysed row its factors and socle series."""
    extra = r["note"] if r["status"] == "ERROR" else " ".join(r.get("flags", []))
    print(f"{r['family']:>2} size={r['size']} ell={r['ell']:>2}  {r['status']}  {extra}")
    if "factors" in r:
        print("    factors", ", ".join(f"{f['label']}({f['dim']})x{f['mult']}" for f in r["factors"]))
        layers = [" + ".join(f"{e['label']}{e['dim']}" for e in lay) for lay in r["socleSeries"]]
        print("    socle", " - ".join(f"({lay})" for lay in layers))


def cmd_suite(args) -> int:
    instances = list(SUITE_INSTANCES)
    if args.extended:
        instances += EXTENDED_INSTANCES
    work = [(f, s, e, args.seed, args.max_p_size) for f, s, e in instances]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_suite_one, work))
    else:
        results = [_suite_one(w) for w in work]
    for family, size, ell in OUT_OF_SCALE_INSTANCES:
        v = closed_params(canon_size(family, size)).v
        results.append(
            {
                "family": family, "size": size, "ell": ell, "status": "OUT_OF_SCALE",
                "note": f"skipped: |P| = {v} exceeds desk scale",
            }
        )
    results.sort(key=lambda r: (r["family"], r["size"], r["ell"]))
    ok = all(r["status"] in ("PASS", "OUT_OF_SCALE") for r in results)
    errored = any(r["status"] == "ERROR" for r in results)
    payload = {"suite": results, "allPass": ok}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            _print_suite_row(r)
        print("suite:", "PASS" if ok else "FAIL")
    return 2 if errored else 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rank3mod",
        description="Structure of the rank-3 permutation modules on nonsingular points "
        "for O(2n,2)+/- and U(m,2), verified against the structure tables.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    analysis = {"ell": True, "seed": True}
    for name, fn, flags in [
        ("points", cmd_points, {}),
        ("params", cmd_params, {}),
        ("order", cmd_order, {"seed": True}),
        ("analyze", cmd_analyze, analysis),
        ("expect", cmd_expect, {"ell": True, "max_p": False}),
        ("verify", cmd_verify, analysis),
    ]:
        p = sub.add_parser(name)
        _add_common(p, **flags)
        p.set_defaults(func=fn)
    p = sub.add_parser("suite")
    p.add_argument("--extended", action="store_true", help="include the U_7(2) instance")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-p-size", type=int, default=DEFAULT_MAX_P)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out", metavar="PATH", help="also write the JSON transcript to PATH")
    p.set_defaults(func=cmd_suite)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OutOfScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CertificationError, BudgetExceededError) as exc:
        print(f"internal certification failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not a structural mismatch (exit code 1)
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
