"""Request lists of the benchmark's workloads.

The lists are written out here rather than read from the program's own suite
list, so that a change to the program cannot change what a workload asks for.
Each request is the argument list of one `rank3mod` command.  The workload
seed is appended as `--seed` when the request is sent, unless the request
carries a fixed seed of its own.
"""

from __future__ import annotations

# Program seed of the requests whose outcome or cost varies too much with the
# seed for a run to be compared with a run on another seed.
FIXED_SEED = 5


def _verify(family: str, size: int, ell: int, seed: int | None = None) -> list[str]:
    flag = "--dim" if family == "u" else "--n"
    argv = ["verify", "--family", family, flag, str(size), "--ell", str(ell)]
    return argv if seed is None else argv + ["--seed", str(seed)]


def _order(family: str, size: int) -> list[str]:
    flag = "--dim" if family == "u" else "--n"
    return ["order", "--family", family, flag, str(size)]


# O+6(2), ell = 3 on seed 164 fails every time: the program gives up with exit
# code 2 (no separating nullity-1 peak word within its budget of words).  It
# is sent in every round and counted as failed, so the fault shows in every run.
KNOWN_FAILURE = _verify("o+", 3, 3, seed=164)

# The 15 verifiable table rows with |P| <= 200, grouped by geometry so that 9
# of them use a geometry an earlier request already built.  O+6(2) and O-6(2)
# at ell = 3 carry FIXED_SEED: on some workload seeds the program gives up on
# them (KNOWN_FAILURE), which would make the share of failed requests differ
# from run to run.
TABLE_ROWS = [
    _verify("o+", 3, 3, seed=FIXED_SEED), _verify("o+", 3, 5), _verify("o+", 3, 7),
    _verify("o-", 3, 3, seed=FIXED_SEED), _verify("o-", 3, 5), _verify("o-", 3, 7),
    _verify("o+", 4, 3),
    _verify("o-", 4, 3), _verify("o-", 4, 17),
    _verify("u", 4, 3), _verify("u", 4, 5), _verify("u", 4, 7),
    _verify("u", 5, 3), _verify("u", 5, 5), _verify("u", 5, 11),
    KNOWN_FAILURE,
]

# One dense request.  Its cost depends on the seed (56-81 s over seeds 1-15),
# and one request is all that fits in a run, so it carries FIXED_SEED.
U6_DENSE = [_verify("u", 6, 3, seed=FIXED_SEED)]

# Certified group orders only; no module or meataxe work.
ORDER_CERT = [_order("o+", 5), _order("o-", 5), _order("u", 6), _order("o+", 6)]

WORKLOADS: dict[str, list[list[str]]] = {
    "table-rows": TABLE_ROWS,
    "u6-dense": U6_DENSE,
    "order-cert": ORDER_CERT,
}


def requests(workload: str, seed: int) -> list[list[str]]:
    """The argument lists of one round of `workload`, each carrying a seed."""
    return [argv if "--seed" in argv else argv + ["--seed", str(seed)] for argv in WORKLOADS[workload]]
