#!/usr/bin/env python3
"""Build and run the step benchmark from the root of a checkout.

    python3 stepbench/run.py --workload conv-est --seed 42 --seconds 10 --trace 0
    python3 stepbench/run.py --self-test

Builds stepbench/ (and the training libraries under src/) into
.bench_build/stepbench with CMake in Release mode, then runs one workload.
The benchmark's own last stdout line is the result JSON; build output goes
to stderr.  Traced runs (--trace 1) write their spans to
.bench_build/stepbench/traces/.  See stepbench/README.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "stepbench"
WORKLOADS = ("conv-est", "attn-est", "rescale-est", "zero1-ddp")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("stepbench: no src/ next to stepbench/; the benchmark builds "
                 "the program from the checkout's sources")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"stepbench: build step failed: {' '.join(cmd)}")
    return BUILD / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the negative self-test instead")
    args = parser.parse_args()

    if args.self_test:
        return subprocess.run([str(build("stepbench_negative_test"))]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("stepbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / "traces" / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
