#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py <base> <change> [--per-layer]

Each side is a directory of saved runs (.bench_out/runs/ as run.py leaves
it, copied aside) or a file holding one run's JSON per line. For every
workload and end-to-end metric it prints each side's median and quartiles
and a verdict against the metric's bound in BENCHMARK.json:

  worse       the change's median is worse than the base's by more than
              the bound;
  better      the change's median is better by more than the bound and the
              two sides' interquartile ranges do not overlap;
  unresolved  anything else: the difference is within the bound or the
              runs overlap too much to tell.

--per-layer also lists the per-layer metrics of traced runs (no bounds,
so no verdicts).
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reduce  # noqa: E402


def load_runs(path):
    runs = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                with open(os.path.join(path, name)) as f:
                    runs.append(json.load(f))
    else:
        with open(path) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    return runs


def values_by_workload(runs, traced):
    """{workload: {metric: [values]}} over runs with the given trace flag."""
    out = {}
    for r in runs:
        if bool(r.get("trace")) != traced:
            continue
        per = out.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def verdict(base, change, better, bound):
    """'better', 'worse' or 'unresolved' (see module docstring)."""
    b1, bm, b3 = reduce.quartiles(base)
    c1, cm, c3 = reduce.quartiles(change)
    if bm == 0:
        return "unresolved"
    gain = (cm - bm) / abs(bm)
    if better == "lower":
        gain = -gain
    if gain < -bound:
        return "worse"
    overlap = not (c3 < b1 or c1 > b3)
    if gain > bound and not overlap:
        return "better"
    return "unresolved"


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--per-layer", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)

    sections = [(False, spec["end_to_end"])]
    if args.per_layer:
        sections.append((True, spec["per_layer"]))
    worse = 0
    for traced, metrics in sections:
        base = values_by_workload(base_runs, traced)
        change = values_by_workload(change_runs, traced)
        for workload in sorted(set(base) | set(change)):
            print("== %s (%s; base %d runs, change %d runs)" % (
                workload, "per-layer" if traced else "end-to-end",
                len(next(iter(base.get(workload, {"": []}).values()), [])),
                len(next(iter(change.get(workload, {"": []}).values()), []))))
            for m in metrics:
                bv = base.get(workload, {}).get(m["name"])
                cv = change.get(workload, {}).get(m["name"])
                if not bv or not cv:
                    print("  %-34s missing on one side" % m["name"])
                    continue
                qb, qc = reduce.quartiles(bv), reduce.quartiles(cv)
                v = verdict(bv, cv, m["better"], m["bound"]) if "bound" in m else "-"
                worse += v == "worse"
                print("  %-34s %-8s base %-32s change %-32s %s" % (
                    m["name"], m["unit"], fmt(qb), fmt(qc), v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
