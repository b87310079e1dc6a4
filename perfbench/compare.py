#!/usr/bin/env python3
"""Compare two sets of benchmark results (parent and change).

Usage:
  python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files perfbench/run.py writes (its
--out directory, .bench_out/results/ by default).  For every workload
and end-to-end metric of BENCHMARK.json the tool prints each side's
median and quartiles, the change's win share over paired runs, and a
verdict:

  improved    over at least ten pairs, the change wins at least 9/10
              of them (ties count for neither side) and the medians
              differ, in the better direction, by more than the
              parent's own quartile spread;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's run-to-run spread (quartile distance over
              median) is wider than the bound, and not every change run
              reads better than every parent run;
  unchanged   otherwise;
  invalid     a change run failed an output check: a broken change
              gets no verdict on that workload, whatever its times.

Runs pair by seed when both sides ran the same seeds, else by run
order; alternate parent and change runs when taking them.  Traced
results (--trace 1) are listed as per-layer medians without a verdict:
per-layer metrics have no bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """workload -> trace flag -> list of results in run order."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            r = json.load(f)
        out.setdefault(r["workload"], {}).setdefault(r["trace"], []).append(r)
    for by_trace in out.values():
        for runs in by_trace.values():
            runs.sort(key=lambda r: r["time"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def pairs(parent, change):
    """Paired (parent, change) runs: by seed when the seed lists match,
    else by run order."""
    ps = sorted(r["seed"] for r in parent)
    cs = sorted(r["seed"] for r in change)
    if ps == cs and len(set(ps)) == len(ps):
        by_seed = {r["seed"]: r for r in change}
        return [(p, by_seed[p["seed"]]) for p in parent]
    return list(zip(parent, change))


def verdict(metric, parent, change, paired):
    lower = metric["better"] == "lower"
    p = [r["metrics"][metric["name"]]["value"] for r in parent]
    c = [r["metrics"][metric["name"]]["value"] for r in change]
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(1 for pr, cr in paired
               if better(cr["metrics"][metric["name"]]["value"],
                         pr["metrics"][metric["name"]]["value"]))
    share = wins / len(paired) if paired else 0.0
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    spread = (p3 - p1) / pm if pm else float("inf")
    all_better = all(better(x, y) for x in c for y in p)
    if (len(paired) >= 10 and share >= 0.9 and better(cm, pm) and
            abs(cm - pm) > p3 - p1):
        v = "improved"
    elif worse > metric["bound"]:
        v = "regressed"
    elif spread > metric["bound"] and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return (p1, pm, p3), (c1, cm, c3), share, len(paired), v


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    for w in bench["workloads"]:
        name = w["name"]
        pr = parent.get(name, {}).get(0, [])
        cr = change.get(name, {}).get(0, [])
        print("== %s  (%d parent runs, %d change runs)"
              % (name, len(pr), len(cr)))
        if not pr or not cr:
            print("   missing runs on one side")
            continue
        bad_p = [r for r in pr if not r["correct"] or r["failed"]]
        bad_c = [r for r in cr if not r["correct"] or r["failed"]]
        if bad_p or bad_c:
            print("   runs failing output checks: %d parent, %d change"
                  % (len(bad_p), len(bad_c)))
        paired = pairs(pr, cr)
        print("   %-20s %-36s %-36s %5s  %s"
              % ("metric", "parent q1 / median / q3",
                 "change q1 / median / q3", "wins", "verdict"))
        for m in bench["end_to_end"]:
            (p1, pm, p3), (c1, cm, c3), share, n, v = verdict(
                m, pr, cr, paired)
            if bad_c:
                v = "invalid"
            print("   %-20s %11.5g %11.5g %11.5g  %11.5g %11.5g %11.5g "
                  "%4.0f%%  %s (%d pairs, bound %g)"
                  % (m["name"], p1, pm, p3, c1, cm, c3, 100 * share, v,
                     n, m["bound"]))
        pt = parent.get(name, {}).get(1, [])
        ct = change.get(name, {}).get(1, [])
        if pt and ct:
            print("   per-layer medians (traced runs; no bound):")
            for m in bench["per_layer"]:
                a = statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in pt)
                b = statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in ct)
                if a or b:
                    print("     %-34s %14.6g -> %-14.6g %s"
                          % (m["name"], a, b, m["unit"]))


if __name__ == "__main__":
    main()
