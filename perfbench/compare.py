#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark (stdlib only).

    python3 perfbench/compare.py BASE CHANGE [--manifest BENCHMARK.json]

BASE and CHANGE are each a results directory (run.py appends one JSON
line per run to .bench_build/results/<workload>.jsonl; copy that
directory aside before switching commits) or a single .jsonl file.

One row per (workload, metric): each side's run count, median and
quartiles, the median change, and a verdict following the
choosing-metrics method:

  better      the change wins at least 9 of 10 runs paired by seed (or
              by order when seeds differ), ties counting for neither,
              and the medians differ by more than the base's own
              quartile spread; or, when the spread is wider than the
              bound, every change run beats every base run
  worse       the change's median is worse than the base's by more
              than the metric's bound
  within      no worse than the bound allows, and no gain shown
  unresolved  the base's or the change's quartile spread, as a share
              of its median, is wider than the bound

Per-layer metrics (traced runs) have no bound: they get "better" by the
same pairing rule, otherwise "-"; they explain, they do not gate. Plan
digests are compared per (workload, seed) and reported, not gated.
Runs that failed an output check are listed and left out.

Each side's median host reference (run.py's timing of a fixed loop that
runs none of the program) is printed per workload. When the two differ
by more than 10%, the host ran at a different speed for the two sides,
and timing verdicts on that workload may reflect the host, not the code.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, n) for n in os.listdir(path)
        if n.endswith(".jsonl"))
    runs = []
    for name in files:
        with open(name) as f:
            runs += [json.loads(line) for line in f if line.strip()]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_wins(base, change, lower_is_better):
    """(wins, pairs) of change over base, paired by seed when possible."""
    by_seed_b = {s: v for s, v in base}
    by_seed_c = {s: v for s, v in change}
    common = sorted(set(by_seed_b) & set(by_seed_c))
    if len(common) >= min(len(base), len(change)) and common:
        pairs = [(by_seed_b[s], by_seed_c[s]) for s in common]
    else:
        pairs = list(zip([v for _, v in base], [v for _, v in change]))
    wins = 0
    for b, c in pairs:
        if c != b and ((c < b) == lower_is_better):
            wins += 1
    return wins, len(pairs)


def verdict(spec, base, change):
    lower = spec["better"] == "lower"
    bvals = [v for _, v in base]
    cvals = [v for _, v in change]
    bq1, bmed, bq3 = quartiles(bvals)
    cq1, cmed, cq3 = quartiles(cvals)
    bound = spec.get("bound")
    wins, pairs = pair_wins(base, change, lower)
    improved = (cmed < bmed) if lower else (cmed > bmed)
    gain = (pairs > 0 and wins >= 0.9 * pairs and improved
            and abs(cmed - bmed) > (bq3 - bq1))
    all_better = (max(cvals) < min(bvals)) if lower else \
        (min(cvals) > max(bvals))
    if bound is None:
        return "better" if gain else "-"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else float("inf"),
                 (cq3 - cq1) / abs(cmed) if cmed else float("inf"))
    if spread > bound:
        return "better" if all_better else "unresolved"
    if gain:
        return "better"
    worse = ((cmed - bmed) if lower else (bmed - cmed)) / abs(bmed) \
        if bmed else 0.0
    return "worse" if worse > bound else "within"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--manifest", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.manifest) as f:
        manifest = json.load(f)
    sides = {"base": load(args.base), "change": load(args.change)}
    for name, runs in sides.items():
        bad = [r for r in runs if not r["correct"]]
        for r in bad:
            print("%s: %s seed %d trace %d failed an output check; "
                  "left out" % (name, r["workload"], r["seed"], r["trace"]))
        sides[name] = [r for r in runs if r["correct"]]

    specs = [(0, s) for s in manifest["end_to_end"]] + \
        [(1, s) for s in manifest["per_layer"]]
    header = ("%-12s %-30s %-12s %3s %-34s %3s %-34s %8s  %s"
              % ("workload", "metric", "unit", "n", "base median [q1, q3]",
                 "n", "change median [q1, q3]", "change", "verdict"))
    print(header)
    print("-" * len(header))
    counts = {}
    for workload in [w["name"] for w in manifest["workloads"]]:
        for trace, spec in specs:
            series = {}
            for name, runs in sides.items():
                series[name] = [
                    (r["seed"], r["metrics"][spec["name"]]["value"])
                    for r in runs
                    if r["workload"] == workload and r["trace"] == trace
                    and spec["name"] in r["metrics"]]
            if not series["base"] or not series["change"]:
                continue
            v = verdict(spec, series["base"], series["change"])
            counts[v] = counts.get(v, 0) + 1
            cells = []
            for name in ("base", "change"):
                q1, med, q3 = quartiles([x for _, x in series[name]])
                cells.append((len(series[name]),
                              "%.5g [%.5g, %.5g]" % (med, q1, q3), med))
            change = ((cells[1][2] - cells[0][2]) / abs(cells[0][2]) * 100
                      if cells[0][2] else 0.0)
            print("%-12s %-30s %-12s %3d %-34s %3d %-34s %+7.1f%%  %s"
                  % (workload, spec["name"], spec["unit"], cells[0][0],
                     cells[0][1], cells[1][0], cells[1][1], change, v))
        refs = []
        for name, runs in sides.items():
            vals = [r["host"]["host_reference_ms"] for r in runs
                    if r["workload"] == workload and r["trace"] == 0
                    and "host_reference_ms" in r["host"]]
            refs.append(statistics.median(vals) if vals else None)
        if None not in refs:
            drift = (refs[1] - refs[0]) / refs[0]
            print("%-12s host reference: base %.2f ms, change %.2f ms "
                  "(%+.1f%%)%s" % (workload, refs[0], refs[1], drift * 100,
                                   "  HOST SPEED DIFFERS: timing verdicts "
                                   "unreliable" if abs(drift) > 0.10
                                   else ""))
        digests = {}
        for name, runs in sides.items():
            digests[name] = {r["seed"]: r["plan_digest"] for r in runs
                             if r["workload"] == workload
                             and r["trace"] == 0}
        common = set(digests["base"]) & set(digests["change"])
        differ = sorted(s for s in common
                        if digests["base"][s] != digests["change"][s])
        if common:
            print("%-12s plan digests: %d of %d shared seeds differ%s"
                  % (workload, len(differ), len(common),
                     (" (seeds %s)" % differ) if differ else ""))
    print("verdicts: " + ", ".join("%s %d" % kv
                                   for kv in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
