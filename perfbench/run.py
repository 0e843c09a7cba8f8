#!/usr/bin/env python3
"""Build the program and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
program and the benchmark harness into $CARGO_TARGET_DIR (default
.bench_build); later calls only check that the build is current. Build
output goes to stderr, so the last stdout line is the harness's JSON
result. Exits nonzero, without a result line, when the build fails, and
nonzero when an output check fails. `--unit-tests` builds and runs the
benchmark's own helper tests instead. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_score", "search_vae_bo", "search_random", "train")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configure once, then bring @p targets up to date. False on failure."""
    bdir = build_dir()
    out = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=out, stderr=out).returncode == 0


def run_harness(args):
    """Run the harness in its own process group and reap the whole group."""
    bdir = build_dir()
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(bdir, "vaesa", "tools", "serve"),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        # The daemon child shares the harness's process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, stdout


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit-tests", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()

    if args.unit_tests:
        if not build(["perfbench_tests"]):
            return 1
        return subprocess.run([os.path.join(build_dir(), "perfbench_tests")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not build(["perfbench", "vaesa_serve"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    rc, stdout = run_harness(args)
    lines = stdout.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        # A run without a result line prints nothing on stdout.
        sys.stderr.write(stdout)
        print("perfbench: harness produced no result (exit %d)" % rc,
              file=sys.stderr)
        return rc or 1
    sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
