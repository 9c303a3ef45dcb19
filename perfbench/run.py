#!/usr/bin/env python3
"""Build the repository benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload kernels|serve|compile --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --record

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, at the root of
the checkout (a Release build of src/ plus the perfbench binary). Build
output goes to stderr; standard output is the benchmark's own, whose last
line is the JSON result. `--record` regenerates perfbench/expected.txt, the
simulated-result digests every run is checked against.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.txt")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["kernels", "serve", "compile"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="regenerate perfbench/expected.txt")
    args = parser.parse_args()
    if not args.record and (args.workload is None or args.seed is None
                            or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources at %s" %
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    if args.record:
        command = [binary, "--record", EXPECTED]
    else:
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", str(args.trace), "--expected", EXPECTED,
                   "--spans-dir", out_dir]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
