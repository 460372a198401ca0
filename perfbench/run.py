#!/usr/bin/env python3
"""Build and run the milliScope benchmark.

    python3 perfbench/run.py --workload online-flat --seed 1 --seconds 36 --trace 0

Run from the root of a source tree. The first run configures and builds the
repository's libraries plus the benchmark program (perfbench/CMakeLists.txt)
into .bench_build/perfbench; later runs reuse that build. Build output goes
to stderr, so the last line of stdout is the program's JSON result. Scratch
files (logs, WAL, snapshots) live under .bench_build/tmp and are removed when
the run ends; the traced run's Chrome trace is kept under
.bench_build/traces.
"""

import argparse
import fcntl
import glob
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
SCRATCH_DIR = os.path.join(OUT_DIR, "tmp")
TRACE_DIR = os.path.join(OUT_DIR, "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# Compiler and benchmark temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=SCRATCH_DIR)


def build():
    """Configures (once) and builds the program; holds a lock so concurrent
    runs in one checkout never build over each other."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no milliScope sources next to perfbench/ (expected src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], "configure")
        jobs = str(min(4, os.cpu_count() or 1))
        step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs], "build")


def step(cmd, what):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=ENV).returncode:
        fail(what + " failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["online-flat", "fleet-tree", "posthoc"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", SCRATCH_DIR]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]

    child = subprocess.Popen(cmd, env=ENV)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        # A crashed run cannot clean up after itself.
        for d in glob.glob(os.path.join(SCRATCH_DIR,
                                        "perfbench-%d-*" % child.pid)):
            shutil.rmtree(d, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
