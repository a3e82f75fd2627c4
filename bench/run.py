#!/usr/bin/env python3
"""prelieder benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

The command starts single-threaded child processes of itself and waits
for each: five that only set up (import prelieder and build the seeded
inputs) to time set-up, then one worker that sets up again, runs the
workload's operations in whole rounds as a closed loop with one caller
(one untimed warm-up round, then about --seconds of timed rounds), and
checks every output. The last line on stdout is one JSON object:
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per layer with --trace 1). See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("sweep", "requests")
SETUP_CHILDREN = 5
DEADLINE_S = 170
MIN_ROUNDS = 3
TAIL_LADDER = (99, 98, 95, 90, 75, 50)
END_TO_END = [("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks, as numpy's default."""
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_pct(ops_per_round):
    """The highest percentile on the ladder with at least ten samples beyond it
    in MIN_ROUNDS rounds; fixed per workload, since its round is."""
    n = ops_per_round * MIN_ROUNDS
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 50)


def run_rounds(ops, seconds, min_rounds, tracer=None):
    """Whole rounds of ops for about `seconds`: a round starts only while half
    a round's average time still fits. Latencies and outputs per op, the
    number of failed ops and the seconds of each round."""
    latencies, outputs, failed, round_s = [], [], 0, []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.begin_round()
        for fn in ops:
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as e:  # a failed operation is counted, not fatal
                out = f"{type(e).__name__}: {e}"
                failed += 1
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        round_s.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if len(round_s) >= min_rounds and elapsed + 0.5 * elapsed / len(round_s) >= seconds:
            return latencies, outputs, failed, round_s


def compare_rounds(outputs, per_round):
    """Every round must give the outputs of the first."""
    first = outputs[:per_round]
    for r in range(1, len(outputs) // per_round):
        if outputs[r * per_round : (r + 1) * per_round] != first:
            return [f"round {r + 1} gave other outputs than round 1"]
    return []


def setup(args):
    """Import prelieder and build the seeded inputs; returns (workload, seconds, workdir)."""
    t0 = time.perf_counter()
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), BENCH]
    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    w = workloads.build(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - t0
    gc.collect()
    return w, setup_s, workdir


def worker(args):
    w, setup_s, workdir = setup(args)
    try:
        per_round = len(w.ops)
        if not args.trace:
            # one untimed round first, so that the timed rounds all start warm
            _, warm_outs, _, _ = run_rounds(w.ops, 0, 1)
            lat, outs, failed, round_s = run_rounds(w.ops, args.seconds, MIN_ROUNDS)
            outs = warm_outs + outs
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ok = sorted(lat)
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": len(lat) / sum(round_s),
                "op_p50_ms": 1000.0 * percentile(ok, 50),
                "op_tail_ms": 1000.0 * percentile(ok, tail_pct(per_round)),
                "peak_rss_mb": rss_mb,
            }
            units = dict(END_TO_END)
        else:
            import tracer as spans

            # untraced and traced rounds alternate, so that the machine's
            # drift falls on both sides of the overhead alike
            tracer = spans.Tracer()
            lat, outs, failed, untraced, traced = [], [], 0, [], []
            start = time.perf_counter()
            while True:
                lat_u, outs_u, failed_u, (elapsed_u,) = run_rounds(w.ops, 0, 1)
                tracer.install()
                try:
                    lat_t, outs_t, failed_t, (elapsed_t,) = run_rounds(w.ops, 0, 1, tracer)
                finally:
                    tracer.uninstall()
                untraced.append(elapsed_u)
                traced.append(elapsed_t)
                lat += lat_u + lat_t
                outs += outs_u + outs_t
                failed += failed_u + failed_t
                elapsed = time.perf_counter() - start
                if elapsed + 0.5 * elapsed / len(traced) >= args.seconds:
                    break
            metrics = tracer.metrics(len(traced), statistics.median(untraced), statistics.median(traced))
            units = dict(spans.PER_LAYER)
            tracer.write(
                os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.spans"),
                {"workload": args.workload, "seed": args.seed, "rounds": len(traced), "ops_per_round": per_round},
            )
        problems = compare_rounds(outs, per_round) + w.check(outs[:per_round])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        sys.stderr.write(f"check failed: {p}\n")
    result = {
        "correct": not problems,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def setup_only(args):
    _, setup_s, workdir = setup(args)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s}))


def child(args, role, deadline):
    argv = [sys.executable, os.path.abspath(__file__), "--role", role, "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.role == "setup":
        return setup_only(args)
    if args.role == "worker":
        return worker(args)

    for need in (os.path.join("src", "prelieder", "__init__.py"), os.path.join("docs", "report.schema.json")):
        if not os.path.isfile(need):
            sys.stderr.write(f"bench: {need} not found; run from the root of a prelieder checkout\n")
            sys.exit(2)
    os.makedirs(OUT, exist_ok=True)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_CHILDREN)]
        result = child(args, "worker", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        sys.stderr.write(f"bench: {e}\n")
        sys.exit(1)
    if not args.trace:
        result["metrics"]["setup_s"]["value"] = statistics.median(setups + [result["metrics"]["setup_s"]["value"]])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
