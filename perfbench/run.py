#!/usr/bin/env python3
"""Build and run the fbdp benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_cells --seed 1 \
        --seconds 10 --trace 0

Builds the simulator library and the benchmark program from the
checkout's sources into .bench_build/perfbench (the first run builds;
later runs only check the build is current), then runs one workload.
The program's last line of standard output is the result JSON.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_cells", "ap_stream_8c", "trace_irregular_8c")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(src, out, jobs):
    """Configure once, then bring the build up to date (build output
    goes to stderr so stdout carries only the benchmark's report)."""
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={src}\n" \
            not in cache.read_text():
        shutil.rmtree(out)  # configured for a checkout elsewhere
    if not cache.exists():
        cmd = ["cmake", "-S", str(src), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=CONFIGURE_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "-j", str(jobs)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no fbdp sources under {root / 'src'}; run from a full "
             "checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")

    out = root / ".bench_build" / "perfbench"
    workdir = out / "work"
    jobs = len(os.sched_getaffinity(0))
    try:
        build(bench_dir, out, jobs)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    cmd = [str(out / "fbdp_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    finally:
        # fbdp_perfbench removes its recorded traces itself; this
        # catches a run that died before it could.
        for d in glob.glob(str(workdir / "traces-*")):
            shutil.rmtree(d, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
