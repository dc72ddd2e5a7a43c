"""Independent checks of the program's JSON output.

Nothing here imports the program: point counts come from this file's own
enumeration of the quadratic or hermitian form, group orders from this file's
own closed formulas, and the structural checks use only the report itself.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

MAX_VECTORS = 4096

# F_4 = {0, 1, w, w^2} coded 0, 1, 2, 3 (w^2 = w + 1); products via logarithms.
_F4_LOG = {1: 0, 2: 1, 3: 2}
_F4_EXP = [1, 2, 3]


def _f4_mul(x: int, y: int) -> int:
    if x == 0 or y == 0:
        return 0
    return _F4_EXP[(_F4_LOG[x] + _F4_LOG[y]) % 3]


# the hermitian norm x * conj(x) = x * x^2 of each F_4 element
_F4_NORM = np.array([_f4_mul(x, _f4_mul(x, x)) for x in range(4)], dtype=np.int64)


def dimension(family: str, size: int) -> int:
    """Ambient dimension: 2n for the orthogonal families, m for the unitary one."""
    return size if family == "u" else 2 * size


@lru_cache(maxsize=None)
def point_counts(family: str, dim: int) -> tuple[int, int]:
    """(|P|, |P^0|): nonsingular and singular points, counted vector by vector.

    O+/O- use Q(x) = sum x_{2i-1} x_{2i} over F_2, with x_{2n-1} + x_{2n} added
    for the minus type; U uses h(x, x) = sum x_i conj(x_i) over F_4.  A point is
    a line, so over F_4 each is counted once per nonzero scalar (3 times).
    """
    q = 4 if family == "u" else 2
    if q**dim > MAX_VECTORS:
        raise ValueError(f"{q}^{dim} vectors exceed the oracle's limit of {MAX_VECTORS}")
    codes = np.arange(1, q**dim, dtype=np.int64)  # every nonzero vector
    if family == "u":
        coords = (codes[:, None] >> (2 * np.arange(dim))) & 3
        form = _F4_NORM[coords].sum(axis=1) % 2
    else:
        bits = (codes[:, None] >> np.arange(dim)) & 1
        form = (bits[:, 0::2] * bits[:, 1::2]).sum(axis=1)
        if family == "o-":
            form = form + bits[:, dim - 2] + bits[:, dim - 1]
        form %= 2
    nonsingular = int((form == 1).sum())
    singular = int((form == 0).sum())
    return nonsingular // (q - 1), singular // (q - 1)


def group_order(family: str, dim: int) -> int:
    """|O^{+-}_{2n}(2)| = 2 * 2^{n(n-1)} (2^n -+ 1) prod_{i<n} (4^i - 1);
    |U_m(2)| = 2^{m(m-1)/2} prod_{i<=m} (2^i - (-1)^i)."""
    if family == "u":
        out = 2 ** (dim * (dim - 1) // 2)
        for i in range(1, dim + 1):
            out *= 2**i - (-1) ** i
        return out
    n = dim // 2
    out = 2 * 2 ** (n * (n - 1)) * (2**n - (1 if family == "o+" else -1))
    for i in range(1, n):
        out *= 4**i - 1
    return out


def parse_request(argv: list[str]) -> dict:
    """Command, family, ambient dimension, ell and seed of a request's argv."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    family = opts["--family"]
    size = int(opts["--dim"] if "--dim" in opts else opts["--n"])
    return {
        "command": argv[0],
        "family": family,
        "dim": dimension(family, size),
        "ell": int(opts["--ell"]) if "--ell" in opts else None,
        "seed": int(opts["--seed"]),
    }


def check(argv: list[str], out: dict) -> list[str]:
    req = parse_request(argv)
    if req["command"] == "order":
        return check_order(req, out)
    if req["command"] == "verify":
        return check_verify(req, out)
    raise ValueError(f"no checks for command {req['command']!r}")


def check_order(req: dict, out: dict) -> list[str]:
    want = group_order(req["family"], req["dim"])
    problems = []
    if (out.get("family"), out.get("m")) != (req["family"], req["dim"]):
        problems.append(f"answered {out.get('family')} m={out.get('m')}, asked {req['family']} m={req['dim']}")
    if out.get("order") != str(want):
        problems.append(f"order {out.get('order')} != {want}")
    if out.get("formulaOrder") != str(want):
        problems.append(f"formulaOrder {out.get('formulaOrder')} != {want}")
    if out.get("match") is not True:
        problems.append("match is not true")
    return problems


def check_verify(req: dict, rep: dict) -> list[str]:
    problems: list[str] = []
    inp = rep["input"]
    asked = (req["family"], req["dim"], req["ell"], req["seed"])
    if (inp["family"], inp["m"], inp["ell"], inp["seed"]) != asked:
        problems.append(f"answered {inp}, asked {asked}")

    nP, nP0 = point_counts(req["family"], req["dim"])
    if (rep["points"]["nonsingular"], rep["points"]["singular"]) != (nP, nP0):
        problems.append(f"points {rep['points']} != ({nP}, {nP0})")

    want_order = str(group_order(req["family"], req["dim"]))
    group = rep["group"]
    if group["order"] != want_order or group["formulaOrder"] != want_order:
        problems.append(f"group order {group['order']}/{group['formulaOrder']} != {want_order}")
    problems += check_rank3(rep["params"], rep["roots"], group, nP)

    factors = Counter({(f["label"], f["dim"]): f["mult"] for f in rep["factors"]})
    if sum(dim * mult for (_, dim), mult in factors.items()) != nP:
        problems.append("composition factor dimensions do not sum to |P|")
    if not any(label == "FF" for label, _ in factors):
        problems.append("no trivial factor FF")

    layers = Counter((e["label"], e["dim"]) for layer in rep["socleSeries"] for e in layer)
    if layers != factors:
        problems.append("socle layers do not sum to the factor multiset")

    problems += check_lattice(rep["lattice"], nP)
    if rep["verdict"]["match"] is not True:
        problems.append(f"verdict does not match: {rep['verdict']['diffs']}")
    return problems


def check_rank3(params: dict, roots: list[int], group: dict, nP: int) -> list[str]:
    v, a, b, r, s = (params[k] for k in "vabrs")
    problems = []
    if v != nP:
        problems.append(f"v = {v} != |P| = {nP}")
    if a + b + 1 != v:
        problems.append("a + b + 1 != v")
    if a * (a - r - 1) != b * s:
        problems.append("a(a - r - 1) != b s")
    if len(roots) != 2 or not all(isinstance(x, int) for x in roots):
        problems.append(f"roots {roots} are not two integers")
    elif any(x * x + (r - s) * x + (s - a) != 0 for x in roots):
        problems.append(f"roots {roots} do not solve x^2 + (r-s)x + (s-a) = 0")
    if group["rank"] != 3 or group["suborbits"] != sorted([1, a, b]):
        problems.append(f"rank {group['rank']} suborbits {group['suborbits']} != 3, [1, a, b]")
    return problems


def check_lattice(lattice: dict, nP: int) -> list[str]:
    dims = {node["id"]: node["dim"] for node in lattice["nodes"]}
    values = sorted(dims.values())
    problems = []
    if values.count(0) != 1 or values.count(nP) != 1:
        problems.append("lattice needs exactly one node of dimension 0 and one of |P|")
    if any(dims[lo] >= dims[hi] for lo, hi in lattice["edges"]):
        problems.append("a lattice edge does not rise in dimension")
    # perp is an anti-automorphism of the lattice: d -> |P| - d permutes dimensions
    if sorted(nP - d for d in values) != values:
        problems.append("lattice dimensions are not symmetric under d -> |P| - d")
    return problems
