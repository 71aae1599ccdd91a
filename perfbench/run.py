#!/usr/bin/env python3
"""Serving benchmark for the ArrayFlex serving stack.

Builds perfbench/ (and the library sources of this checkout) into
.bench_build/perfbench, runs one seeded workload, and passes the benchmark's
output through; the last line of standard output is the result JSON.

    python3 perfbench/run.py --workload cost_plan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py ... --out runs.jsonl       # also append the result
    python3 perfbench/run.py --compare base.jsonl new.jsonl
    python3 perfbench/run.py --self-test

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "serving_bench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def git_sha():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "serve", "server.h")):
        sys.exit("run.py: no library sources under %s/src" % ROOT)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build logs go to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))


def run(args):
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.csv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not lines:
        return done.returncode or 1
    if args.out:
        stamp = next((json.loads(line[6:]) for line in lines
                      if line.startswith("stamp ")), {})
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "stamp": stamp,
                  "result": json.loads(lines[-1])}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    return 0


# ---- compare ------------------------------------------------------------

def summary(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(base, new, better, bound):
    """Judges `new` against `base` under the metric's bound."""
    if bound is None:
        return "no bound"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    m_base, m_new = summary(base)[1], summary(new)[1]
    if m_base == 0:
        return "unchanged" if m_new == 0 else "unresolved"
    change = (m_new - m_base) / abs(m_base)
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if not record["result"].get("correct"):
                continue
            for name, metric in record["result"]["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(
                    metric["value"])
    return runs


def compare(base_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_runs(base_path), load_runs(new_path)
    print("%-11s %-38s %5s %30s %30s  %s" % (
        "workload", "metric", "runs", "base q1 / median / q3",
        "new q1 / median / q3", "verdict"))
    worst = 0
    for key in sorted(set(base) & set(new)):
        workload, name = key
        m = metrics.get(name, {})
        v = verdict(base[key], new[key], m.get("better", "lower"),
                    m.get("bound"))
        worst = max(worst, v == "regressed")
        fmt = "%.4g / %.4g / %.4g"
        print("%-11s %-38s %2d/%-2d %30s %30s  %s" % (
            workload, name, len(base[key]), len(new[key]),
            fmt % summary(base[key]), fmt % summary(new[key]), v))
    return worst


# ---- self-test ----------------------------------------------------------

def self_test():
    build()
    failures = []
    done = subprocess.run([BINARY, "--self-test"], stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        failures.append("serving_bench --self-test")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    printed = {kind: [] for kind in ("end_to_end", "per_layer")}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        printed[kind].append((name, unit))
    for kind in printed:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if printed[kind] != declared:
            failures.append("%s metrics differ from BENCHMARK.json" % kind)

    def expect(ok, what):
        if not ok:
            failures.append(what)

    flat = [100.0] * 10
    expect(summary([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5),
           "quartiles of 1..5")
    expect(verdict(flat, [130.0] * 10, "lower", 0.25) == "regressed",
           "30% slower is a regression under a 25% bound")
    expect(verdict(flat, [110.0] * 10, "lower", 0.25) == "unchanged",
           "10% slower is within a 25% bound")
    expect(verdict(flat, [70.0] * 10, "lower", 0.25) == "improved",
           "30% faster is an improvement")
    expect(verdict(flat, [70.0] * 10, "higher", 0.25) == "regressed",
           "30% lower throughput is a regression")
    expect(verdict(flat, [50.0, 100.0, 150.0, 200.0] * 3, "lower", 0.25)
           == "unresolved", "a spread wider than the bound is unresolved")
    for f in failures:
        print("FAIL", f)
    print("run.py self-test: %d failed" % len(failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["cost_plan", "fleet_cost", "llm_stream"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the run's record to this JSONL")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two JSONL sets of runs")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
