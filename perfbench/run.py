#!/usr/bin/env python3
"""Hydra benchmark: build, run one workload, check it, print its metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and through it the library sources under src/) into
.bench_build/ on first use, runs the hydra_perfbench binary for one
workload, checks its outputs and prints a human-readable report followed
by one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the run is traced (Chrome trace JSON under .bench_out/)
and the metrics are the per-layer ones.  Every result is also written,
with its environment stamp, to .bench_out/results/ for compare.py.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "hydra_perfbench")

# Seed whose identity hashes are pinned in pins.json.  Seed 9001 was
# held out while the benchmark was tuned: confirm a claimed gain on it.
DEFAULT_SEED = 1

# Per workload: the percentile reported as host_item_ms_tail (the
# highest with enough items beyond it; see README.md).
TAIL = {
    "fhe_cnn_block": 0.75,
    "sim_design_sweep": 0.875,
    "serve_fifo_open": 0.75,
    "serve_cake_chaos": 0.75,
}

# Traced runs: the spans below the item roots must explain the traced
# item sets' wall time, timed apart from every span, up to this share
# (the rest is benchmark glue in and between items).
MAX_UNATTRIBUTED = 0.05

# Model metrics the benchmark reports but that are not end-to-end
# metrics of BENCHMARK.json (they are 0 on some workloads).
EXTRA_E2E = ["model_shed_rate", "fhe_max_err", "error_rate"]

# Per-layer timings taken from span self times in the trace: metric ->
# (span name, unit scale from ms).  Mean per span occurrence, over the
# traced items (set-up spans when the workload has none there).
SPAN_METRICS = {
    "fhe.boot.modraise_ms": ("fhe.boot.modraise", 1.0),
    "fhe.boot.coefftoslot_ms": ("fhe.boot.coefftoslot", 1.0),
    "fhe.boot.evalmod_ms": ("fhe.boot.evalmod", 1.0),
    "fhe.boot.slottocoeff_ms": ("fhe.boot.slottocoeff", 1.0),
    "fhe.conv_ms": ("fhe.conv", 1.0),
    "fhe.act_ms": ("fhe.act", 1.0),
    "fhe.pool_ms": ("fhe.pool", 1.0),
    "sched.compile_plan_ms": ("sched.compile_plan", 1.0),
    "sched.run_plan_ms": ("sched.run_plan", 1.0),
    "serve.run_s": ("serve.run", 1e-3),
}


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configure and build on first use; later runs are incremental."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found; run from a full checkout")
    gen = ["-G", "Ninja"] if _which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        _quiet(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    _quiet(["cmake", "--build", BUILD, "-j", jobs,
            "--target", "hydra_perfbench"])


def _which(prog):
    for d in os.environ.get("PATH", "").split(os.pathsep):
        if os.access(os.path.join(d, prog), os.X_OK):
            return True
    return False


def _quiet(cmd):
    """Run a build step; its output goes to stderr only on failure."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        die("build step failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace_path, threads):
    """Run one workload; returns (report, wall_s, cpu_s, max_rss_kb)."""
    cmd = [BINARY, workload, "--seed", str(seed), "--seconds",
           str(seconds)]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    env = dict(os.environ, HYDRA_THREADS=str(threads))
    t0 = time.monotonic()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        out = p.stdout.read()
    finally:
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        die("hydra_perfbench %s exited with %d" % (workload, p.returncode))
    return (json.loads(out.decode()), wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss)


def quantile(values, p):
    """Linear-interpolation quantile (0 for an empty list)."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = p * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def threads_setting():
    """HYDRA_THREADS for the run: the caller's value clamped to
    [1, nproc], else 1 (single-threaded host time is the steadiest on
    a shared box; model metrics must not depend on it)."""
    nproc = os.cpu_count() or 1
    try:
        n = int(os.environ.get("HYDRA_THREADS", "1"))
    except ValueError:
        n = 1
    return max(1, min(n, nproc))


def commit_stamp():
    """git HEAD when the checkout is a repository, else a hash of the
    benchmark and library sources."""
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.decode().strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha1:" + h.hexdigest()[:16]


def pin_mismatches(workload, seed, report):
    """Names whose identity hash differs from pins.json (default seed)."""
    if seed != DEFAULT_SEED:
        return []
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f).get(workload, {})
    got = report["hashes"]
    return sorted(n for n, h in pins.items() if got.get(n) != h)


def best_repetitions(items):
    """Each distinct item's fastest repetition in the run.  The measured
    loop replays its item set round-robin for the whole run; host speed
    on a shared box drops by up to ~1.6x for stretches of seconds, and
    the fastest repetition filters those stretches out.  Every
    repetition is still checked."""
    best = {}
    for i in items:
        if i["name"] not in best or i["ms"] < best[i["name"]]["ms"]:
            best[i["name"]] = i
    return list(best.values())


def end_to_end(workload, report, wall, cpu, rss_kb):
    items = [i for i in report["items"] if not i["traced"]]
    best = best_repetitions(items)
    per_item_ms = [i["ms"] / max(i["units"], 1) for i in best]
    m = {
        "setup_s": statistics.median(report["setup_s"]),
        "host_items_per_s": sum(i["units"] for i in best) /
        (sum(i["ms"] for i in best) / 1e3),
        "host_item_ms_p50": quantile(per_item_ms, 0.50),
        "host_item_ms_tail": quantile(per_item_ms, TAIL[workload]),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    m.update(report["model"])
    m["fhe_max_err"] = report["layer"].get("fhe.max_err", 0.0)
    stamp = {"items": len(items), "effective_cores": cpu / wall}
    return m, stamp


def span_self_times(trace):
    """Self time (ms) per span id: duration minus child durations."""
    events = trace["traceEvents"]
    self_ms = {}
    for e in events:
        self_ms[e["args"]["id"]] = e["dur"] / 1e3
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            self_ms[parent] -= e["dur"] / 1e3
    return events, self_ms


def per_layer(report, trace_path):
    """Per-layer metrics from the trace plus the program's counters, and
    the reconciliation of span self times with the traced sets' wall
    time."""
    with open(trace_path) as f:
        trace = json.load(f)
    events, self_ms = span_self_times(trace)
    by_name = {}
    for e in events:
        key = (e["name"], e["args"]["item"] > 0)
        by_name.setdefault(key, []).append(self_ms[e["args"]["id"]])
    layer = dict(report["layer"])
    for metric, (span, scale) in SPAN_METRICS.items():
        v = by_name.get((span, True)) or by_name.get((span, False)) or []
        layer[metric] = statistics.fmean(v) * scale if v else 0.0

    # Reconciliation: the self times of every span below the item
    # roots (layer calls and benchmark glue such as encrypt/check) must
    # explain the traced sets' wall time, which cycleDone takes at the
    # set boundaries outside every span; the item roots' own self time
    # and the gaps between items are what no span explains.
    ends = report["set_end_s"]
    set_ms = [1e3 * (b - a) for a, b in zip([0.0] + ends, ends)]
    traced_ms = sum(set_ms[1::2])
    below_root = sum(self_ms[e["args"]["id"]] for e in events
                     if e["args"]["item"] > 0 and e["name"] != "item")
    layer["trace.unattributed_frac"] = 1.0 - below_root / traced_ms
    layer["trace.spans"] = float(len(events))
    traced = [i for i in report["items"] if i["traced"]]
    untraced = [i for i in report["items"] if not i["traced"]]
    # Tracing overhead: traced item sets against the untraced sets of
    # the same items in the same run, leaving out set 0 (process warm-up).
    warm = untraced[len({i["name"] for i in report["items"]}):]
    ratios = []
    for name in sorted({i["name"] for i in traced}):
        t = [i["ms"] for i in traced if i["name"] == name]
        u = [i["ms"] for i in warm if i["name"] == name]
        if t and u:
            ratios.append(statistics.median(t) / statistics.median(u))
    layer["trace.overhead_frac"] = (statistics.median(ratios) - 1.0
                                    if ratios else 0.0)
    reconciled = 0.0 <= layer["trace.unattributed_frac"] <= MAX_UNATTRIBUTED
    return layer, reconciled


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(OUT, "results"),
                    help="directory for result files (compare.py input)")
    args = ap.parse_args()

    bench = load_benchmark()
    if args.workload not in TAIL:
        die("unknown workload %r (one of %s)"
            % (args.workload, ", ".join(TAIL)))
    if args.seconds <= 0 or args.seed < 0:
        die("--seconds must be positive and --seed non-negative")
    build()
    os.makedirs(OUT, exist_ok=True)

    threads = threads_setting()
    trace_path = (os.path.join(OUT, "trace-%s-%d.json"
                               % (args.workload, args.seed))
                  if args.trace else "")
    report, wall, cpu, rss = run_binary(args.workload, args.seed,
                                        args.seconds, trace_path, threads)

    attempted = report["attempted"]
    failed = report["failed"]
    pins = pin_mismatches(args.workload, args.seed, report)
    failed = min(attempted, failed + len(pins))
    e2e, stamp = end_to_end(args.workload, report, wall, cpu, rss)
    e2e["error_rate"] = failed / max(attempted, 1)
    env = dict(report["env"])
    env.update({"hydra_threads": threads, "nproc": os.cpu_count(),
                "effective_cores": stamp["effective_cores"],
                "commit": commit_stamp()})
    correct = failed == 0

    if args.trace:
        layer, reconciled = per_layer(report, trace_path)
        layer["model.shed_rate"] = e2e["model_shed_rate"]
        layer["check.error_rate"] = e2e["error_rate"]
        names = [m["name"] for m in bench["per_layer"]]
        metrics = {n: {"value": float(layer.get(n, 0.0)),
                       "unit": next(m["unit"] for m in bench["per_layer"]
                                    if m["name"] == n)}
                   for n in names}
        correct = correct and reconciled
    else:
        metrics = {m["name"]: {"value": float(e2e[m["name"]]),
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update({"model_shed_rate": "ratio", "fhe_max_err": "abs",
                  "error_rate": "ratio"})
    print("workload %s  seed %d  trace %d  (%d items, %.1f s measured)"
          % (args.workload, args.seed, args.trace, stamp["items"],
             report["measured_s"]))
    print("env " + json.dumps(env, sort_keys=True))
    for name in [m["name"] for m in bench["end_to_end"]] + EXTRA_E2E:
        print("  %-20s %14.6g %s" % (name, e2e[name], units[name]))
    if args.trace:
        for name, m in sorted(metrics.items()):
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for msg in report["failures"] + ["pin mismatch: " + n for n in pins]:
        print("  CHECK FAILED: " + msg)
    if args.trace and not reconciled:
        print("  CHECK FAILED: span self times do not reconcile with "
              "wall time")

    os.makedirs(args.out, exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "correct": correct,
              "attempted": attempted, "failed": failed,
              "end_to_end": e2e, "metrics": metrics,
              "hashes": report["hashes"], "notes": report["notes"],
              "time": time.time()}
    stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                     time.time_ns())
    with open(os.path.join(args.out, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
