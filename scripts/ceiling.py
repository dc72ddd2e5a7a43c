"""Time and memory of one verify run, by default U7(2) (|P| = 2752) at ell = 3.

Runs `run_analysis(family, size, ell, seed)` in this fresh interpreter with
one BLAS thread, by default on the desk-scale ceiling, `run_analysis("u", 7,
3, seed=0)`, with `max_p` the instance's |P|, so that no size is refused as
out of desk scale.  It prints the phase times of the report (`timingsMs`)
and the process's peak resident set (`ru_maxrss`), as one JSON object.  It
also splits the group phase (`groupMs`): the candidate loop of `build_group`
(`candidates`), Sims' verification (`StabilizerChain.verify`) and
`generating_pair`; the chop phase (`chopMs`): the Krylov annihilators
(`krylov_annihilator`), the split candidates' spins (`Meataxe._split_by`)
and Norton's transpose side (`Meataxe._norton`); and the lattice phase
(`latticeMs`):
`Meataxe.ensure_peaks`, the Fitting kernels of the peak words
(`Meataxe.fitting_kernels`), the walk (`Meataxe._walk`), the glue
(`Meataxe._glue`), the certificate of closure under sum and intersection
(`Meataxe._certify_lattice`, `certify`) and the perp and graph-submodule
checks of `analyze` (`analyze._lattice_checks`, `checks`).  Each span is
timed by a wrapper put around it here, exclusive of the others nested in
it; what is left of a phase (the rank and suborbits, or the operator's
split and the registration of the chop's classes) is `rest`.  `wordMatrixMs` is
the time spent in `Word.matrix`, timed by a wrapper put around it here
(outermost calls only, so a word's matrix on a section's module is not
counted twice); the lattice spans include it.  `eliminationMs` is the time
spent in the row-reduction kernel `linalg._eliminate` (every `rref`, `rank`
and `nullspace`), timed the same way; the phase times include it.
`reportSha256` is the sha256 of the report without `timingsMs`, taken as
`tests/test_acceptance.py` takes it, so one command shows both the time and
whether the answer changed.  It runs from a checkout without installing the
package:

    python scripts/ceiling.py [--family F (--n N | --dim M)] [--ell L] [--seed S]

The instance's flags are those of `rank3mod verify`.  The U7(2) run takes
13-16 seconds, as the host's load allows, and peaks at 320-330 MiB, as the
heap's layout falls (one BLAS thread on a 2-core host).
"""

import os

# before numpy is imported: OpenBLAS and MKL read these once, at load
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rank3mod import analyze, linalg, meataxe  # noqa: E402
from rank3mod.analyze import canon_size, run_analysis  # noqa: E402
from rank3mod.cli import _check_ell, _size_of  # noqa: E402
from rank3mod.geometry import OMINUS, OPLUS, UNITARY, closed_params  # noqa: E402
from rank3mod.groups import StabilizerChain  # noqa: E402
from rank3mod.meataxe import Meataxe, Word  # noqa: E402

# span name -> (owner, attribute); analyze calls build_group and
# generating_pair by the names it imported, so they are wrapped there
GROUP_SPANS = {
    "candidates": (analyze, "build_group"),
    "verify": (StabilizerChain, "verify"),
    "generating_pair": (analyze, "generating_pair"),
}
# the chop calls krylov_annihilator by the name meataxe imported
CHOP_SPANS = {
    "krylov": (meataxe, "krylov_annihilator"),
    "candidate_spins": (Meataxe, "_split_by"),
    "transpose_side": (Meataxe, "_norton"),
}
# analyze calls _lattice_checks by its module-level name, so it is wrapped there
LATTICE_SPANS = {
    "ensure_peaks": (Meataxe, "ensure_peaks"),
    "fitting_kernels": (Meataxe, "fitting_kernels"),
    "walk": (Meataxe, "_walk"),
    "glue": (Meataxe, "_glue"),
    "certify": (Meataxe, "_certify_lattice"),
    "checks": (analyze, "_lattice_checks"),
}


def time_spans(spans: dict[str, tuple]) -> dict[str, float]:
    """Wrap each span; returns their exclusive seconds, filled as they run."""
    spent = dict.fromkeys(spans, 0.0)
    nested: list[float] = []  # seconds of timed spans inside each open span

    def wrap(name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            nested.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                inner = nested.pop()
                dt = time.perf_counter() - t0
                spent[name] += dt - inner
                if nested:
                    nested[-1] += dt
        return timed

    for name, (owner, attr) in spans.items():
        setattr(owner, attr, wrap(name, getattr(owner, attr)))
    return spent


def phase_ms(spent: dict[str, float], total_ms: int) -> dict[str, int]:
    """The spans of one phase in ms, and what is left of the phase as `rest`.

    The report truncates a phase to whole ms, so the rest is taken against
    the spans' total truncated alike, and is never negative.
    """
    out = {name: round(1000 * s) for name, s in spent.items()}
    out["rest"] = total_ms - int(1000 * sum(spent.values()))
    return out


def time_outermost(owner, attr: str) -> list[float]:
    """Wrap owner.attr; returns [seconds] of its outermost calls, filled as they run."""
    spent = [0.0]
    depth = [0]
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                spent[0] += time.perf_counter() - t0

    setattr(owner, attr, timed)
    return spent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=[OPLUS, OMINUS, UNITARY], default=UNITARY)
    parser.add_argument("--dim", type=int, help="ambient dimension m (7 for the default family)")
    parser.add_argument("--n", type=int, help="half-dimension n (orthogonal families)")
    parser.add_argument("--ell", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0:  # numpy's seed sequences would refuse it deep in the group phase
        parser.error(f"--seed must be non-negative, not {args.seed}")
    if args.family == UNITARY and args.dim is None and args.n is None:
        args.dim = 7
    try:
        size = _size_of(args)
        _check_ell(args.ell)
    except ValueError as exc:
        parser.error(str(exc))
    group_s = time_spans(GROUP_SPANS)
    chop_s = time_spans(CHOP_SPANS)
    lattice_s = time_spans(LATTICE_SPANS)
    word_s = time_outermost(Word, "matrix")
    elim_s = time_outermost(linalg, "_eliminate")
    max_p = closed_params(canon_size(args.family, size)).v
    res = run_analysis(args.family, size, args.ell, seed=args.seed, max_p=max_p)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    timings = res.report["timingsMs"]
    report = {k: v for k, v in res.report.items() if k != "timingsMs"}
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    print(json.dumps({
        "seed": args.seed,
        "match": res.report["verdict"]["match"],
        "timingsMs": timings,
        "groupMs": phase_ms(group_s, timings["group"]),
        "chopMs": phase_ms(chop_s, timings["chop"]),
        "latticeMs": phase_ms(lattice_s, timings["lattice"]),
        "wordMatrixMs": round(1000 * word_s[0]),
        "eliminationMs": round(1000 * elim_s[0]),
        "reportSha256": digest,
        "ru_maxrss_MiB": round(rss / 1024, 1),
    }))
    return 0 if res.report["verdict"]["match"] else 1


if __name__ == "__main__":
    sys.exit(main())
