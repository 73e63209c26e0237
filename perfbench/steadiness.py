#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
                                    [--workloads a,b] [--first-seed 1]
                                    [--raw FILE] [--log FILE]

Runs every workload --runs times per set, each run with another seed
(the same seeds in every set), and prints for each workload and
end-to-end metric the median, the quartiles (Python's
statistics.quantiles, n=4), and the spread, the inter-quartile range as
a share of the median, next to the metric's bound from BENCHMARK.json.
With two or more sets it also prints how far each later set's median
moved in the metric's worse direction, as a share of the first set's
median. A spread under a third of the bound, and a drift under the
bound, is steady; every metric, setup_s included, is held to both
rules. Exits 1 if a metric misses either rule or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def drift(first, later, better):
    """How much worse the median of `later` is than that of `first`, as a
    share of the first median; negative when it is better."""
    a = statistics.median(first)
    b = statistics.median(later)
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def verdict(metric, spread_value, drifts):
    """Problems of one metric under the two rules, as a list of text."""
    problems = []
    bound = metric["bound"]
    if spread_value > bound / 3:
        problems.append("spread %.3f > bound/3 %.3f" % (spread_value,
                                                         bound / 3))
    for d in drifts:
        if d > bound:
            problems.append("drift %.3f > bound %.3f" % (d, bound))
    return problems


def run_once(workload, seed, seconds, log=None):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", "0"]
    if seconds:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if log:
        log.write("== %s seed %d\n%s" % (workload, seed, done.stderr))
        log.flush()
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="override run_seconds (for quick tuning)")
    parser.add_argument("--raw", help="append every result as JSON lines")
    parser.add_argument("--log", help="append every run's stderr")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    failed_runs = 0
    # values[workload][metric] -> one list of values per set
    values = {w: {m["name"]: [[] for _ in range(args.sets)]
                  for m in bench["end_to_end"]} for w in workloads}
    raw = open(args.raw, "a") if args.raw else None
    log = open(args.log, "a") if args.log else None
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = args.first_seed + i
                result = run_once(w, seed, args.seconds, log)
                ok = result is not None and result["correct"]
                if raw:
                    raw.write(json.dumps({"set": s, "workload": w,
                                          "seed": seed,
                                          "result": result}) + "\n")
                    raw.flush()
                if not ok:
                    failed_runs += 1
                    print("run failed: %s seed %d" % (w, seed), flush=True)
                    continue
                for name, entry in result["metrics"].items():
                    values[w][name][s].append(entry["value"])
            print("set %d: %s done" % (s + 1, w), file=sys.stderr, flush=True)

    steady = failed_runs == 0
    print("%-15s %-16s %14s %14s %14s %7s %7s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread*", "bound",
        "drift per later set"))
    for w in workloads:
        for metric in bench["end_to_end"]:
            sets = values[w][metric["name"]]
            if any(not v for v in sets):
                steady = False
                continue
            q1, median, q3 = quartiles(sets[0])
            s0 = max(spread(v) for v in sets)
            drifts = [drift(sets[0], later, metric["better"])
                      for later in sets[1:]]
            problems = verdict(metric, s0, drifts)
            steady = steady and not problems
            print("%-15s %-16s %14.6g %14.6g %14.6g %7.4f %7.3f %s%s" % (
                w, metric["name"], median, q1, q3, s0, metric["bound"],
                " ".join("%+.4f" % d for d in drifts) or "-",
                ("  <-- " + "; ".join(problems)) if problems else ""))
    print("median and quartiles of the first set; spread* is the largest "
          "spread of any set")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
