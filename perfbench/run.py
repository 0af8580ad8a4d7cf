#!/usr/bin/env python3
"""psdns benchmark entry point.

Builds the benchmark binary from the checkout's sources, runs one workload
in a fresh process and prints the run's JSON report as the last line of
stdout:

    python3 perfbench/run.py --workload slab_np4_128 --seed 1 --seconds 40 --trace 0

With --trace 1 the report holds the per-layer replay instead of the
end-to-end metrics; every workload's traced run reports every per-layer
metric. BENCHMARK.json gates the two solver workloads; svc_open_loop and
des_plan_sweep run the same way but are not gated (see README.md). Two
more modes:

    python3 perfbench/run.py --workload W --repeat K [--seconds S]
        runs W K times (seeds 1..K), each in fresh processes, and prints
        every metric's median, quartiles and (Q3-Q1)/median;
    python3 perfbench/run.py --self-test
        builds and runs the tests of the benchmark's own helpers.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), and
build output goes to stderr. Without the program's sources the build fails
and the script exits non-zero without printing a report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("slab_np4_128", "pencil_mhd_96", "svc_open_loop", "des_plan_sweep")
# setup_s is the median over this many fresh processes: the measured run
# plus SETUP_SAMPLES - 1 set-up-only runs (plan caches and the workspace
# arena are per process, so a second set-up in one process would be warm).
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    out = build_dir()
    steps = []
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(BUILD_JOBS),
                  "--target", target])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    binary = os.path.join(out, target)
    if not os.path.exists(binary):
        sys.exit("perfbench: %s was not built" % target)
    return binary


def run_binary(binary, args):
    """Runs the benchmark binary once; returns its parsed last stdout line."""
    # One thread per rank (the worker pool runs inline), and no log sink
    # that could point outside the checkout.
    env = dict(os.environ, PSDNS_THREADS="1")
    env.pop("PSDNS_LOG_FILE", None)
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: run failed (exit %d): %s"
                 % (proc.returncode, " ".join(args)))
    return json.loads(lines[-1])


def run_once(binary, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            only = run_binary(binary, args + ["--setup-only"])
            setups.append(only["metrics"]["setup_s"]["value"])
    report = run_binary(binary, args)
    if setups:
        setups.append(report["metrics"]["setup_s"]["value"])
        report["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return report


def repeat(binary, workload, runs, seconds, trace):
    """Runs `workload` with seeds 1..runs and prints per-metric spreads."""
    reports = []
    for seed in range(1, runs + 1):
        rep = run_once(binary, workload, seed, seconds, trace)
        reports.append(rep)
        print("seed %d: %s" % (seed, json.dumps(rep)), file=sys.stderr)
    names = []
    for rep in reports:
        for name in rep["metrics"]:
            if name not in names:
                names.append(name)
    rows = []
    for name in names:
        values = [r["metrics"][name]["value"] for r in reports
                  if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in reports
                    if name in r["metrics"])
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        rows.append((name, unit, len(values), med, q1, q3, spread))
    print("workload %s, %d runs of %s s, trace %d" % (
        workload, runs, seconds, 1 if trace else 0))
    print("%-24s %-8s %3s %14s %14s %14s %9s" % (
        "metric", "unit", "n", "median", "q1", "q3", "iqr/med"))
    for name, unit, n, med, q1, q3, spread in rows:
        print("%-24s %-8s %3d %14.6g %14.6g %14.6g %9.4f" % (
            name, unit, n, med, q1, q3, spread))
    correct = all(r["correct"] for r in reports)
    shares = sorted({r["failed"] / r["attempted"] for r in reports})
    print("all correct: %s; failed/attempted: %s" % (correct, shares))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, metavar="K",
                    help="run K times (seeds 1..K) and print spreads")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the helper tests")
    args = ap.parse_args()

    if args.self_test:
        test = build("perfbench_helpers_test")
        return subprocess.run([test], cwd=ROOT).returncode
    if not args.workload:
        ap.error("--workload is required")
    binary = build("psdns_perfbench")
    if args.repeat:
        return repeat(binary, args.workload, args.repeat, args.seconds,
                      args.trace == 1)
    report = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
