#!/usr/bin/env python3
"""Builds and runs the job-level FLASH benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--host-threads <n>]
    python3 perfbench/run.py --selftest

--selftest runs the checkers' negative tests and a smoke run of every
workload, then checks that the workloads and metrics the binary reports
are the ones BENCHMARK.json lists, with the same units.

The first call configures and builds perfbench/ (which compiles the
repository's src/ libraries) into .bench_build/perfbench with a Release
build; later calls only re-check the build. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(BUILD, "tmp")


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs()])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def check_listing():
    """Compares `perfbench --list-metrics` with BENCHMARK.json; returns a
    list of differences."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = ["workload " + w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        want += ["%s %s %s" % (kind, m["name"], m["unit"]) for m in spec[kind]]
    listing = subprocess.run([os.path.join(BUILD, "perfbench"), "--list-metrics"],
                             stdout=subprocess.PIPE, text=True, check=True)
    got = listing.stdout.splitlines()
    return (["only in the binary: " + line for line in got if line not in want] +
            ["only in BENCHMARK.json: " + line for line in want if line not in got] +
            ["listed twice: " + line for line in set(want) if want.count(line) > 1])


def selftest():
    if not build("perfbench_selftest") or not build("perfbench"):
        return 1
    os.makedirs(TMP, exist_ok=True)
    code = subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                           "--tmp-dir", TMP]).returncode
    differences = check_listing()
    for line in differences:
        print("FAIL metric list: " + line)
    if not differences:
        print("PASS BENCHMARK.json lists the binary's workloads and metrics")
    return code or (1 if differences else 0)


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    if "--workload" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    if not build("perfbench"):
        return 1
    os.makedirs(TMP, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"), "--tmp-dir", TMP] + argv
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
