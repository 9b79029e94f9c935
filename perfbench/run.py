#!/usr/bin/env python3
"""Serving benchmark: builds the library and the driver, then runs one
workload (routed, batch or ingest) in a process of its own.

Run from the repository root:

  python3 perfbench/run.py --workload routed --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all [--trace 1]   # every workload, one table
  python3 perfbench/run.py --smoke             # self-tests + tiny runs

A single-workload run prints, as the last line of standard output, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it holds the run's metadata and the sample count behind every
metric. Reference replies are computed first, in a separate process, so
neither their time nor their memory lands in the measured run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SELFTEST = os.path.join(BUILD_DIR, "perfbench_selftest")
WORKLOADS = ("routed", "batch", "ingest")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, smoke=False,
                 force_mismatch=False):
    """Returns (exit code, metadata object, result object or None)."""
    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    refs = os.path.join(work, "references.bin")
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--work-dir", work, "--refs", refs]
    if smoke:
        common.append("--smoke")
    try:
        subprocess.run([DRIVER] + common + ["--references-only"], check=True,
                       stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        command = [DRIVER] + common + ["--trace", "1" if trace else "0",
                                       "--git-sha", git_sha()]
        if force_mismatch:
            command.append("--force-mismatch")
        out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    meta = json.loads(lines[-2]) if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    if result is not None and set(result) != RESULT_KEYS:
        raise RuntimeError("driver printed a malformed result: %s" % lines[-1])
    return out.returncode, meta, result


def print_table(rows):
    log("%-8s %-28s %16s %-9s %8s" % ("workload", "metric", "value", "unit", "samples"))
    for workload, meta, result in rows:
        samples = meta.get("samples", {}) if meta else {}
        for name, metric in (result or {}).get("metrics", {}).items():
            log("%-8s %-28s %16.6g %-9s %8s" % (
                workload, name, metric["value"], metric["unit"],
                samples.get(name, "")))
        if meta:
            log("%-8s %-28s %16.6g %-9s %8s" % (
                workload, "fail_frac", meta["fail_frac"], "ratio",
                result["attempted"] if result else ""))


def smoke():
    """Self-tests, every workload end to end on tiny inputs (traced and
    untraced, correctness gate included), and one forced mismatch that
    must fail."""
    ok = subprocess.run([SELFTEST], stdout=sys.stderr).returncode == 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, _, result = run_workload(workload, 1, 1, trace, smoke=True)
            passed = code == 0 and result is not None and result["correct"]
            log("smoke %-6s trace=%d: %s" % (workload, trace,
                                             "ok" if passed else "FAILED"))
            ok = ok and passed
    code, _, result = run_workload("batch", 1, 1, False, smoke=True,
                                   force_mismatch=True)
    caught = code != 0 and result is not None and not result["correct"]
    log("smoke forced mismatch: %s" % ("rejected" if caught else "NOT CAUGHT"))
    return ok and caught


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--smoke", action="store_true",
                        help="self-tests plus tiny runs of every workload")
    parser.add_argument("--force-mismatch", action="store_true",
                        help="corrupt one reference reply; the run must fail")
    args = parser.parse_args()
    if not (args.workload or args.all or args.smoke):
        parser.error("give --workload, --all or --smoke")

    try:
        build()
        if args.smoke:
            return 0 if smoke() else 1
        if args.all:
            rows, code = [], 0
            for workload in WORKLOADS:
                rc, meta, result = run_workload(workload, args.seed,
                                                args.seconds, args.trace)
                rows.append((workload, meta, result))
                code = code or rc
            print_table(rows)
            return code
        code, meta, result = run_workload(args.workload, args.seed,
                                          args.seconds, args.trace,
                                          force_mismatch=args.force_mismatch)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as error:
        log("perfbench: %s" % error)
        return 2
    if result is None:
        log("perfbench: the driver printed no result")
        return code or 1
    print(json.dumps(meta))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
