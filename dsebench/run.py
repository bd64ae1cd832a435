#!/usr/bin/env python3
"""Builds the DSE service benchmark from this checkout's sources and runs it.

    python3 dsebench/run.py --workload <new_app|node_wall|rerank|validate_front>
                            --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the checkout. The optimised build goes to
$CARGO_TARGET_DIR/dsebench (default .bench_build/dsebench); the first run
configures and compiles, later runs only check that the build is current.
Every run first executes the benchmark's self-tests. The traced run
(--trace 1) writes its spans next to the build. Build output goes to
stderr; the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def step(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("dsebench: step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["new_app", "node_wall", "rerank", "validate_front"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
                         "dsebench")
    if not os.path.exists(os.path.join(build, "Makefile")):
        step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", build, "--target", "dsebench", "dsebench_selftest", "-j", jobs])
    step([os.path.join(build, "dsebench_selftest")])

    trace_out = os.path.join(build, "trace-%s-seed%d.tsv" % (args.workload, args.seed))
    result = subprocess.run([os.path.join(build, "dsebench"),
                             "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", repr(args.seconds), "--trace", str(args.trace),
                             "--trace-out", trace_out])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
