#!/usr/bin/env python3
"""Repository benchmark entry point (BENCHMARK.json).

    python3 perfbench/run.py --workload bfs-rmat --seed 1 --seconds 45 --trace 0

Run from the repository root.  Builds the benchmark package (perfbench/,
which compiles the library from ../src) under $CARGO_TARGET_DIR or
.bench_build, runs the closed-loop driver for one workload, prints every
metric with its unit, and prints the result object as the last stdout line.

The deterministic counters of every distinct call (edges, byte counters,
iterations, modeled time) are stored per driver binary, workload and seed;
a later run of the same binary and seed must reproduce them exactly, so the
traced and untraced sets of runs are checked against each other.

Exit status: 0 when every call matched its oracle and every count repeated;
1 on any failure (the result line still prints, with "correct": false);
2 when the benchmark could not build or run (no result line).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bfs-rmat", "bfs-longtail", "sssp-batch")
# The default seed, and a held-out seed kept for confirming a claim on
# inputs not used while the change was written.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return Path(root).resolve() / "perfbench"


def build(out):
    """Configure and build the driver; returns its path (None on failure)."""
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", "4"]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return out / "perfbench_driver"


def check_counts(out, binary, args, fingerprint):
    """Compare this run's deterministic counts with an earlier run of the
    same binary, workload and seed; record them on the first run."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    name = f"{digest}-{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}.json"
    path = out / "counts" / name
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != fingerprint:
            return f"deterministic counts differ from the earlier run in {path}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(fingerprint))
    tmp.replace(path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"{HELDOUT_SEED} is held out for confirming claims)")
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the run as a JSON line (diff.py input)")
    ap.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    ap.add_argument("--corrupt-one", action="store_true",
                    help="check one deliberately corrupted result copy")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None or not binary.exists():
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_file = out / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_one:
        cmd.append("--corrupt-one")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = done.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: driver exited {done.returncode} without a result")
        return 2

    errors = list(doc["errors"])
    failed = doc["failed"]
    if done.returncode not in (0, 1):
        errors.append(f"driver exited {done.returncode}")
    mismatch = check_counts(out, binary, args, doc["fingerprint"])
    if mismatch:
        errors.append(mismatch)
        failed += 1
    correct = done.returncode == 0 and failed == 0 and not mismatch

    notes = doc["notes"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{doc['attempted']} calls attempted, {failed} failed "
          f"(failure_rate {failed / doc['attempted']:.6g} ratio)")
    for name, m in doc["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"run_ms_tail is p{notes['run_ms_tail_percentile']:.4g} of "
          f"{notes['samples']:.0f} timed calls ({notes['run_ms_tail_beyond']:.0f} beyond)")
    if args.trace:
        print(f"trace: {notes['spans']:.0f} spans in {notes['trace_file']}")
    for e in errors:
        print(f"FAILURE: {e}")

    result = {"correct": correct, "attempted": doc["attempted"],
              "failed": failed, "metrics": doc["metrics"]}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
