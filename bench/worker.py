"""One workload in one fresh interpreter; started by run.py, not by hand.

The worker imports the program from the checkout's `src/`, prints `ready`
(run.py times set-up up to that line), then sends the workload's requests as
a closed loop with one client through `rank3mod.cli.main`, capturing what the
program prints.  Every output is parsed and put through the independent
checks of oracle.py.  While it runs, it times the calibration kernel of
calibrate.py once a second, and scales the times to the reference speed.
The last line it prints is one JSON object with the raw measurements and
the scaled ones.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR --deadline T
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    sys.path.insert(0, str(SRC))
    from rank3mod import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rank3mod was imported from {cli.__file__}, not from {SRC}")
    return cli


def send(cli, check, argv: list[str], clock) -> tuple[float, str | None, bool]:
    """One request: (latency, failure or None, whether the output was wrong)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash of the program is a failed request, not a crash of the benchmark
        return clock() - t0, traceback.format_exc(limit=3), False
    latency = clock() - t0
    if code == 2:
        return latency, f"exit code 2: {err.getvalue().strip()}", False
    try:
        problems = check(argv, json.loads(out.getvalue()))
    except (ValueError, KeyError, TypeError) as exc:
        return latency, f"unreadable output: {exc!r}", True
    if code != 0:
        problems.append(f"exit code {code}")
    if problems:
        return latency, "; ".join(problems), True
    return latency, None, False


def run(cli, workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, deadline: float) -> dict:
    # imported only now: they load numpy, whose import must count in the
    # program's set-up time, not before it
    import calibrate
    import oracle
    from tracer import Tracer, layer_metrics

    reqs = workloads.requests(workload, seed)
    for argv in reqs:  # the oracle enumerates its point sets outside the timed loop
        req = oracle.parse_request(argv)
        if req["command"] == "verify":
            oracle.point_counts(req["family"], req["dim"])

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    # the traced run reports counts and self times, not times at a speed
    probe = None if trace else calibrate.SpeedProbe()
    clock = probe.clock if probe else time.perf_counter
    latencies: list[float] = []
    spans: list[tuple[float, float]] = []  # perf_counter at each request's start and end
    answered: list[bool] = []
    rounds = 0
    peak_rss_mb = 0.0
    failures: list[str] = []
    wrong = 0
    start = time.monotonic()
    with probe or contextlib.nullcontext():
        while True:
            t_round = time.monotonic()
            for i, argv in enumerate(reqs):
                if tracer:
                    tracer.request = f"{rounds}.{i}"
                t0 = time.perf_counter()
                latency, failure, bad = send(cli, oracle.check, argv, clock)
                spans.append((t0, time.perf_counter()))
                latencies.append(latency)
                answered.append(not failure)
                if failure:
                    failures.append(f"{' '.join(argv)}: {failure}")
                    wrong += bad
            rounds += 1
            if rounds == 1:
                # heap the first round leaves resident lifts later peaks (order-cert:
                # 144 MiB in round 1, 171 in round 2), and how many rounds fit depends
                # on speed, so the first round's peak is the one reported
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = time.monotonic()
            # the traced run is one round, so its counts describe one pass of the
            # list; no round starts that, as long as the last one, would end past
            # the deadline
            if trace or now - start >= seconds or now + (now - t_round) > deadline:
                break

    def summary(lat: list[float]) -> tuple[float, float]:
        """(median over rounds of a round's summed latencies, median request latency)"""
        n = len(reqs)
        wall = statistics.median(sum(lat[r * n:(r + 1) * n]) for r in range(rounds))
        # a failed request's latency is the time the program took to give up,
        # not to an answer.  With an even count the lower middle value is
        # taken, so that the figure is the latency of a request that was sent,
        # not the mean of two unlike ones.
        return wall, statistics.median_low([x for x, ok in zip(lat, answered) if ok] or lat)

    # each latency at the reference speed, by the speed measured around it
    scales = [probe.scale(t0, t1) for t0, t1 in spans] if probe else [1.0] * len(spans)
    wall_s, request_p50_s = summary(latencies)
    wall_ref_s, request_p50_ref_s = summary([x * k for x, k in zip(latencies, scales)])
    result = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "attempted": len(latencies),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
        "wall_ref_s": wall_ref_s,
        "request_p50_ref_s": request_p50_ref_s,
        "wall_s": wall_s,
        "request_p50_s": request_p50_s,
        # the scale of the whole run, for the set-up time measured before it
        "scale": probe.scale() if probe else 1.0,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": latencies,
        "scales": scales,
        "calibration_s": probe.samples if probe else [],
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, tracer.counters)
        tracer.write(out_dir / f"trace-{workload}-seed{seed}.jsonl.gz")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true", help="import the program, print ready, exit")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--deadline", type=float, help="time.monotonic() by which the last round must end")
    args = ap.parse_args()
    cli = import_program()
    print("ready", flush=True)
    if args.probe:
        return 0
    result = run(cli, args.workload, args.seed, args.seconds, bool(args.trace), args.out, args.deadline)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
