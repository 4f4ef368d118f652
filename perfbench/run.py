#!/usr/bin/env python3
"""Repository benchmark: host cost of the simulator on four workloads.

Run from the repository root:

  python3 perfbench/run.py --workload fig16 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --table      # README reference table
  python3 perfbench/run.py --selftest   # the benchmark's own tests

Builds the simulator libraries from the repository's root CMake project
and the measuring program from perfbench/ into .bench_build/, runs the
program, adds the peak resident memory of the process that ran the
workload, and prints one JSON line as the last line of standard output
holding the metrics BENCHMARK.json names, each with its unit.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RSVM_BUILD = os.path.join(BUILD, "rsvm")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; the build happens before this clock starts.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def call(cmd):
    """Run a build step, its output to stderr; raise on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True)


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(RSVM_BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", ROOT, "-B", RSVM_BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    call(["cmake", "--build", RSVM_BUILD, "--target", "rsvm_apps",
          "-j", jobs])
    if not os.path.exists(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
              BENCH_BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
              f"-DRSVM_BUILD_DIR={RSVM_BUILD}"])
    call(["cmake", "--build", BENCH_BUILD, "-j", jobs])


def run_program(args):
    """Run the measuring program; return (stdout lines, peak RSS in MB)."""
    proc = subprocess.Popen([os.path.join(BENCH_BUILD, "perfbench")] + args,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
    # wait4 gives this process's own peak RSS (KiB on Linux), not that of
    # the compilers the build ran.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring program exited {proc.returncode}")
    return out.splitlines(), usage.ru_maxrss / 1024.0


def result(lines, peak_rss_mb, metric_specs):
    """Select the metrics BENCHMARK.json names and attach their units."""
    measured = json.loads(lines[-1])
    values = dict(measured["metrics"])
    values["peak_rss_mb"] = peak_rss_mb
    metrics = {}
    for spec in metric_specs:
        if spec["name"] not in values:
            raise RuntimeError(f"program reported no {spec['name']}")
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    return {"correct": measured["correct"],
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--table", action="store_true",
                    help="print the README's reference table")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        build()
        if a.selftest:
            call(["ctest", "--test-dir", BENCH_BUILD, "--output-on-failure"])
            return 0
        if a.table:
            lines, _ = run_program(["--table"])
            print("\n".join(lines[:-1]))
            return 0 if json.loads(lines[-1])["failed"] == 0 else 1
        if a.workload not in [w["name"] for w in spec["workloads"]]:
            ap.error("--workload must be one of BENCHMARK.json's workloads")
        args = ["--workload", a.workload, "--seconds", str(a.seconds),
                "--trace", str(a.trace)]
        if a.seed is not None:
            args += ["--seed", str(a.seed)]
        lines, peak = run_program(args)
        res = result(lines, peak,
                     spec["per_layer" if a.trace else "end_to_end"])
    except (subprocess.CalledProcessError, RuntimeError, ValueError,
            KeyError, IndexError) as e:
        log(f"failed: {e}")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
