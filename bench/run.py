"""Benchmark of rank3mod: one workload per invocation, from the checkout's root.

    python3 bench/run.py --workload table-rows --seed 1 --seconds 10 --trace 0

Set-up is timed on fresh interpreters (SETUP_SAMPLES of them, the workload's
own among them) from start until `rank3mod.cli` is imported.  The workload
then runs in its own fresh interpreter (bench/worker.py) as a closed loop with
one client, for whole rounds of its request list until --seconds have passed.
With --trace 1 the worker wraps the program's layers and runs one round.

The last line printed is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  The full
result, with every request's latency and failure, is written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 7
DEADLINE_S = 175.0  # a run must end within 180 s
# the worker's last round must end this long before the deadline: rounds vary
# in length, and the result and the trace are still to be written
ROUND_SLACK_S = 20.0
# One BLAS thread: on the 2-core reference machine two threads made no request
# faster, and made every run slow down sharply whenever any other process ran.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(RuntimeError):
    pass


def start_worker(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a fresh interpreter; return it and its time from start to `ready`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = sel.select(timeout=max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
    except BaseException:  # SystemExit on SIGTERM too: the worker must not outlive run.py
        stop(proc)
        raise
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RunError(f"worker did not get ready: {line!r}")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc: subprocess.Popen, deadline: float) -> list[str]:
    """Wait for the worker's exit; the lines it printed after `ready`."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunError("worker ran past the deadline") from None
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out.splitlines()


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "rank3mod" / "cli.py").is_file():
        raise RunError(f"no program to measure: {ROOT / 'src' / 'rank3mod'} is missing")
    OUT.mkdir(exist_ok=True)
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe, setup = start_worker(["--probe"], deadline)
            finish(probe, deadline)
            setups.append(setup)
    proc, setup = start_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", str(OUT), "--deadline", repr(deadline - ROUND_SLACK_S)],
        deadline,
    )
    setups.append(setup)
    lines = finish(proc, deadline)
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_samples_s"] = setups
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # a terminated run unwinds, so that it stops its worker and waits for it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        res = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for failure in res["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(res["setup_samples_s"]) * res["scale"], "unit": "s"},
            "wall_ref_s": {"value": res["wall_ref_s"], "unit": "s"},
            "request_p50_ref_s": {"value": res["request_p50_ref_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
