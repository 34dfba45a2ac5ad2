#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/smoke_test.py

For every workload, a --trace 0 and a --trace 1 run must pass and print
every end-to-end (resp. per-layer) metric of BENCHMARK.json by name with its
unit, as a text line and in the result object; the traced run must write a
span file holding the layer spans.  A run that feeds one deliberately
corrupted result copy through the oracle must count it as a failure and
exit nonzero, which shows the gate can fail.  Exit status 1 on any problem.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FACADES = {"bfs-rmat": ("DistributedBfs", "serial_bfs"),
           "bfs-longtail": ("DistributedBfs", "serial_bfs"),
           "sssp-batch": ("DistributedBatchSssp", "serial_delta_sssp")}

problems = []


def expect(cond, what):
    if not cond:
        problems.append(what)
    return cond


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        sys.stderr.write(done.stderr)
    return done.returncode, lines, result


def check_metrics(tag, lines, result, wanted):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{tag}: attempted {result['attempted']!r}")
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{tag}: metric names {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if not expect(got is not None, f"{tag}: {m['name']} missing"):
            continue
        expect(got["unit"] == m["unit"], f"{tag}: {m['name']} unit {got['unit']}")
        value = got["value"]
        expect(isinstance(value, (int, float)) and not isinstance(value, bool),
               f"{tag}: {m['name']} value {value!r}")
        expect(any(l.startswith(m["name"] + " ") and l.endswith(" " + m["unit"])
                   for l in lines), f"{tag}: no text line for {m['name']}")


def check_trace(tag, workload, lines):
    line = next((l for l in lines if l.startswith("trace: ")), None)
    if not expect(line is not None, f"{tag}: no trace file reported"):
        return
    events = json.loads(Path(line.split(" spans in ", 1)[1]).read_text())["traceEvents"]
    names = {e["name"] for e in events}
    facade, serial = FACADES[workload]
    for span in ("graph.suggest_threshold", "graph.build_distributed",
                 f"core.{facade}::run", "sim.PerfModel::replay",
                 "bench.oracle_check", f"baseline.{serial}"):
        expect(span in names, f"{tag}: span {span} missing from the trace")
    for e in events:
        expect({"span", "parent", "call"} <= set(e["args"]) and e["dur"] >= 0,
               f"{tag}: malformed span {e}")


def main():
    for workload in FACADES:
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            tag = f"{workload} trace {trace}"
            code, lines, result = run(workload, trace)
            if not expect(result is not None, f"{tag}: no result line"):
                continue
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{tag}: exit {code}, {[l for l in lines if 'FAILURE' in l]}")
            check_metrics(tag, lines, result, wanted)
            if trace:
                check_trace(tag, workload, lines)
        tag = f"{workload} corrupted copy"
        code, _, result = run(workload, 0, "--corrupt-one")
        if expect(result is not None, f"{tag}: no result line"):
            expect(code == 1 and not result["correct"] and result["failed"] >= 1,
                   f"{tag}: the corrupted copy was not counted as a failure "
                   f"(exit {code}, {result})")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
