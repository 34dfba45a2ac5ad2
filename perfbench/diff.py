#!/usr/bin/env python3
"""Compare benchmark runs recorded with `run.py --record FILE`.

    python3 perfbench/diff.py PARENT.jsonl CHANGE.jsonl   # parent vs change
    python3 perfbench/diff.py RUNS.jsonl                  # spread of one side

Rows are grouped by workload and trace mode.  For each metric it prints
each side's median and quartiles (statistics.quantiles, n=4) and the spread,
the quartile distance as a share of the median.  Metrics with a bound in
BENCHMARK.json are judged by the rule of the choosing-metrics method:

  REGRESSION   the change's median is worse than the parent's by more than
               the bound;
  unresolved   either side's spread exceeds the bound, and not every change
               run beats every parent run;
  gain         the change wins at least 9 of 10 run pairs (paired in file
               order, ties count for neither) and the medians differ by
               more than the parent's quartile distance;
  same         otherwise.

With one file, a bounded metric whose spread exceeds a third of its bound is
marked "unsteady".  Exit status 1 when any metric is a REGRESSION.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_specs():
    spec = json.loads(BENCHMARK.read_text())
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def load_runs(path):
    """{(workload, trace): {metric: [values in file order]}}"""
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["metrics"].items():
            runs[(rec["workload"], rec["trace"])][name].append(m["value"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def judge(parent, change, direction, bound):
    p_med, p_q1, p_q3, p_spread = summary(parent)
    c_med, _, _, c_spread = summary(change)
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    worse_share = worse / abs(p_med) if p_med else 0.0
    if bound is None:
        return "info"
    if p_spread > bound or c_spread > bound:
        if all(better(c, p, direction) for c in change for p in parent):
            return "better-all-runs"
        return "unresolved"
    if worse_share > bound:
        return "REGRESSION"
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and -worse > (p_q3 - p_q1):
        return "gain"
    return "same"


def fmt(x):
    return f"{x:.6g}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    specs = load_specs()
    parent = load_runs(argv[1])
    change = load_runs(argv[2]) if len(argv) == 3 else None
    regressions = 0
    for key in sorted(parent):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        for name, values in parent[key].items():
            direction, bound = specs.get(name, ("lower", None))
            med, q1, q3, spread = summary(values)
            line = (f"  {name:28s} n={len(values):<3d} median {fmt(med)} "
                    f"[{fmt(q1)}, {fmt(q3)}] spread {spread:.3%}")
            if change is None:
                if bound is not None:
                    line += f" bound {bound:.0%}"
                    if spread > bound / 3:
                        line += "  unsteady"
                print(line)
                continue
            other = change.get(key, {}).get(name)
            if not other:
                print(line + "  (no change runs)")
                continue
            c_med, c_q1, c_q3, c_spread = summary(other)
            status = judge(values, other, direction, bound)
            regressions += status == "REGRESSION"
            delta = (c_med - med) / abs(med) if med else 0.0
            print(f"  {name:28s} parent {fmt(med)} [{fmt(q1)}, {fmt(q3)}] "
                  f"change {fmt(c_med)} [{fmt(c_q1)}, {fmt(c_q3)}] "
                  f"{delta:+.2%} ({direction} is better"
                  f"{'' if bound is None else f', bound {bound:.0%}'}) {status}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
