"""Time and memory of the desk-scale ceiling: U7(2) (|P| = 2752) at ell = 3.

Runs `run_analysis("u", 7, 3, seed=0)` in this fresh interpreter with one
BLAS thread and prints the phase times of the report (`timingsMs`) and the
process's peak resident set (`ru_maxrss`), as one JSON object.  It runs
from a checkout without installing the package:

    python scripts/ceiling.py [--seed N]

The run takes about 45 seconds and peaks near 0.35 GiB.
"""

import os

# before numpy is imported: OpenBLAS and MKL read these once, at load
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rank3mod.analyze import run_analysis  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    res = run_analysis("u", 7, 3, seed=args.seed)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "seed": args.seed,
        "match": res.report["verdict"]["match"],
        "timingsMs": res.report["timingsMs"],
        "ru_maxrss_MiB": round(rss / 1024, 1),
    }))
    return 0 if res.report["verdict"]["match"] else 1


if __name__ == "__main__":
    sys.exit(main())
