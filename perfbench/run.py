#!/usr/bin/env python3
"""Entry point of the condensa end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call builds the
benchmark (perfbench/CMakeLists.txt, which compiles the condensa
libraries from src/) into $CARGO_TARGET_DIR/perfbench-<key>, default
.bench_build/perfbench-<key>, where <key> is a hash of the checkout's
path. Every file a run writes stays under that build
directory: the workload's scratch files in work/ (removed at the end),
traces in traces/ and per-seed release digests in digests/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list;
the traced run also prints the per-layer table on stderr. Exits non-zero
without a result line if the build, the run or the result's shape fails.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Limits for one measured run and for one build step; a run that builds
# must stay within 900 s in all.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    """The build directory of this checkout. It is keyed by the checkout's
    path, so that two checkouts sharing one CARGO_TARGET_DIR never build,
    time or check each other's sources (CMake keeps the source directory
    it was configured with in its cache)."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(target, "perfbench-" + key)


def build(out_dir, targets):
    """Configures the benchmark and builds `targets`; returns True on
    success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: no condensa sources at %s/src" % ROOT)
        return False
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target"] +
                     targets)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                log("error: %s: %s" % (" ".join(step[:2]), e))
                return False
            if done.returncode != 0:
                log("error: build step failed: %s" % " ".join(step))
                return False
    return True


def check_result(result, specs):
    """Returns "" if `result` has the contract's shape for `specs` (a list
    of {"name", "unit", ...}), else what is wrong."""
    if not isinstance(result, dict):
        return "result is not an object"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            return "%s is not a whole number" % key
    if result["attempted"] < 1:
        return "nothing was attempted"
    metrics = result["metrics"]
    want = {s["name"]: s["unit"] for s in specs}
    if not isinstance(metrics, dict) or set(metrics) != set(want):
        return "metrics are %s, expected %s" % (
            sorted(metrics) if isinstance(metrics, dict) else metrics,
            sorted(want))
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            return "metric %s is malformed" % name
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            return "metric %s has a non-finite value" % name
        if entry["unit"] != want[name]:
            return "metric %s has unit %s, expected %s" % (
                name, entry["unit"], want[name])
    return ""


def print_layer_table(workload, result, layer_map):
    """The per-layer table on stderr: each measured layer metric with the
    end-to-end metric it should move, and where it should not."""
    rows = layer_map.get("layers", {})
    log("per-layer metrics of %s (0 = layer not in this workload's loop):"
        % workload)
    for name, entry in result["metrics"].items():
        if entry["value"] == 0:
            continue
        row = rows.get(name, {})
        log("  %-42s %16.6g %-6s moves %s on %s" % (
            name, entry["value"], entry["unit"],
            ", ".join(row.get("moves", [])) or "-",
            ", ".join(row.get("on", [])) or "-"))


def run_workload(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log("error: unknown workload %s (have %s)" % (args.workload, names))
        return 2
    out_dir = build_dir()
    if not build(out_dir, ["perfbench"]):
        return 1
    binary = os.path.join(out_dir, "perfbench")
    work = os.path.join(out_dir, "work", "%s-%d" % (args.workload,
                                                    os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
               "--trace=%d" % args.trace, "--work-dir=" + work]
    if args.trace:
        command.append("--trace-out=" + os.path.join(
            out_dir, "traces", "%s-seed%d.json" % (args.workload, args.seed)))
    if args.workload == "condense_csv":
        command.append("--digest-file=" + os.path.join(
            out_dir, "digests", "%s-seed%d" % (args.workload, args.seed)))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log("error: %s did not finish in %d s" % (args.workload,
                                                  RUN_TIMEOUT_S))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        log("error: perfbench exited with %d" % done.returncode)
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("error: perfbench printed no result")
        return 1
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    problem = check_result(result, specs)
    if problem:
        log("error: bad result: " + problem)
        return 1
    if args.trace:
        with open(os.path.join(HERE, "layer_map.json")) as f:
            print_layer_table(args.workload, result, json.load(f))
    print(lines[-1], flush=True)
    return 0


def self_test():
    out_dir = build_dir()
    if not build(out_dir, ["perfbench", "perfbench_selftest"]):
        return 1
    cpp = subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                         cwd=out_dir)
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests"), "-p", "test_*.py"])
    return 0 if cpp.returncode == 0 and py.returncode == 0 else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
    except (OSError, ValueError) as e:
        log("error: cannot read BENCHMARK.json: %s" % e)
        return 1
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
