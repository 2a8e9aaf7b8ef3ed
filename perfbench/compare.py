#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are files holding record lines, as run.py prints them or
appends them with --record (captured stdout works too: other lines are
skipped). Runs are grouped per (workload, metric); for each group both
sides' median and quartiles are printed with the change in the median.

End-to-end metrics get a verdict against the bound BENCHMARK.json fixes:
  worse      the change's median is worse than the base median by more
             than the bound;
  unresolved either side's spread (quartile distance over median) is
             wider than the bound, and not every change run reads better
             than every base run;
  better     every change run reads better than every base run;
  ok         otherwise.
Per-layer metrics have no bound and are printed without a verdict.
Exits 1 when any metric is worse.
"""
import argparse
import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if not isinstance(rec, dict) or "workload" not in rec:
                continue
            for name, m in rec.get("metrics", {}).items():
                runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, change, metric):
    sign = 1 if metric["better"] == "lower" else -1
    bound = metric["bound"]
    base_med, change_med = statistics.median(base), statistics.median(change)
    all_better = max(sign * v for v in change) < min(sign * v for v in base)
    if all_better:
        return "better"
    if base_med and sign * (change_med - base_med) / abs(base_med) > bound:
        return "worse"
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    return "ok"


def main():
    p = argparse.ArgumentParser(description="compare two result sets")
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--benchmark", default="BENCHMARK.json")
    a = p.parse_args()
    with open(a.benchmark) as f:
        bench = json.load(f)
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load(a.base), load(a.change)

    def side(values):
        q1, med, q3 = summary(values)
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

    worse = False
    print(f"{'workload':14} {'metric':32} {'runs':>5}  {'base median [q1, q3]':34}"
          f"{'change median [q1, q3]':34}{'delta':>8}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        b, c = base[key], change[key]
        b_med, c_med = statistics.median(b), statistics.median(c)
        delta = (c_med - b_med) / abs(b_med) if b_med else 0.0
        v = verdict(b, c, bounded[name]) if name in bounded else ""
        worse |= v == "worse"
        print(f"{workload:14} {name:32} {len(b):>2}/{len(c):<2}  {side(b):34}"
              f"{side(c):34}{delta:>+8.1%}  {v}")
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]:14} {key[1]:32} only in {'base' if key in base else 'change'}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
