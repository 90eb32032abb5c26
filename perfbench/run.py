#!/usr/bin/env python3
"""Build the idlewave benchmark binary from this checkout and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 10 --trace 0

The binary is configured through perfbench/CMakeLists.txt, which builds the
library with the repository's own Release settings. The build tree is
$CARGO_TARGET_DIR when set (relative paths are taken from the checkout root),
else .bench_build/. The first run configures and builds; later runs only
re-check the build. Each run gets a private directory under the build tree
for its JSONL files and its idlewaved socket, removed when the run ends. A
traced run (--trace 1) also leaves its spans in <build>/spans-<workload>.json.

The last line of standard output is the run's JSON result; build output goes
to standard error. Exits non-zero, without a result, when the library's
sources are not next to perfbench/ or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "big_ring", "service")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(tree):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: the idlewave sources (src/) are not next to perfbench/; "
              "nothing to build", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", tree, "-j", jobs]]
    if os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(tree, "iw_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tree = build_dir()
    binary = build(tree)
    if binary is None:
        return 2

    runs = os.path.join(tree, "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=runs)
    # Relative to the checkout root (the binary's working directory), so the
    # socket path stays short whatever the checkout's absolute path is.
    rel_run_dir = os.path.relpath(run_dir, ROOT)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--run-dir=" + rel_run_dir]
    if args.trace:
        cmd.append("--spans-out=" + os.path.join(
            os.path.relpath(tree, ROOT), "spans-%s.json" % args.workload))
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the run exceeded %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
