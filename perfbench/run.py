#!/usr/bin/env python3
"""Build and run the WASAI benchmark on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload templates|obfuscated \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR, or .bench_build when unset.
Every call then runs the benchmark program in a fresh process, so its
peak RSS is that run's own. The last line of standard output is the
program's JSON result; build output goes to standard error.
Per-contract fingerprints persist under <build>/perfbench/fingerprints, so
a later run of the same workload and seed that reproduces different outputs
fails. Delete that directory after a change meant to alter outputs.

Exit status: the program's (0 = every output check passed, 1 = a check
failed, 2 = usage), or 1 when the sources are missing, the build fails or
the run times out.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
MAX_BUILD_JOBS = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}")
    if code != 0:
        fail(f"failed ({code}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no WASAI sources under {ROOT}/src")
    started = time.monotonic()
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(MAX_BUILD_JOBS, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", "wasai_perfbench",
                "-j", jobs],
               BUILD_TIMEOUT_S - (time.monotonic() - started))
    return os.path.join(build_dir, "wasai_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["templates", "obfuscated"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--store", os.path.join(build_dir, "fingerprints")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
