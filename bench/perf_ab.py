#!/usr/bin/env python3
"""Same-host A/B gate for the kernel and substrate microbenchmarks.

Builds a parent revision and the working tree with LTO, then runs
micro_eventkernel and the warm-up, controller and AMB rows of
micro_substrate on both, five times each, alternating which side goes
first and pinning every run to the same CPU, and gates each row on how
the change's speed compares with the parent's:

  speed    items_per_second, or 1 / real_time for a row that counts no
           items (both are "higher is faster").
  ratio    change speed / parent speed, one per pair of runs.
  bound    0.10 + the parent's own spread: the median absolute
           deviation of its speeds, divided by their median (one
           outlier among five runs cannot inflate it).
  verdict  a row fails when the median ratio is below 1 - bound.
           Faster is never a failure.  Not gated, only listed: a row
           that exists on one side only, and the Ref*/Malloc* rows,
           which time reference designs kept inside the benchmark
           rather than the project's code.

Both sides run on the same host in the same minutes, so the gate reads
the code's speed, not the runner's.  Exit status: 0 every row within
its bound, 1 a row regressed, 2 usage or build error.

  python3 bench/perf_ab.py --base HEAD~1            # build both, gate
  python3 bench/perf_ab.py --parent-build P --change-build C  # reuse
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (binary, --benchmark_filter) pairs whose rows are gated.
BENCHES = [
    ("micro_eventkernel", "."),
    ("micro_substrate",
     "BM_(FunctionalWarmup|ControllerIssueCycle|AmbCache)"),
]
BOUND = 0.10
RUNS = 5          # runs per side
MIN_TIME = "0.1"  # --benchmark_min_time of rows without their own


def die(msg):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, **kw):
    r = subprocess.run(cmd, stderr=subprocess.PIPE, text=True, **kw)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die(f"'{' '.join(cmd)}' exited {r.returncode}")


def export_rev(rev, dest):
    """The tree of @rev, extracted into @dest."""
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", rev],
                               stdout=subprocess.PIPE)
    run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    if archive.wait() != 0:
        die(f"git archive {rev} failed")


def build(src, out):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    run(["cmake", "-B", out, "-S", src, *gen,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DFBDP_LTO=ON"],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
         "--target", *[b for b, _ in BENCHES]], stdout=subprocess.DEVNULL)


def speeds(build_dir, binary, filt, out):
    """One run of @binary: {row name: speed}."""
    exe = os.path.join(build_dir, "bench", binary)
    if not os.path.exists(exe):
        return {}
    cpu = str(max(os.sched_getaffinity(0)))
    run(["taskset", "-c", cpu, exe, f"--benchmark_filter={filt}",
         f"--benchmark_min_time={MIN_TIME}",
         f"--benchmark_out={out}", "--benchmark_out_format=json"],
        stdout=subprocess.DEVNULL)
    with open(out) as f:
        rows = json.load(f)["benchmarks"]
    # A row with its own MinTime() carries "/min_time:X" in its name;
    # dropping it pairs the row across a change of that minimum.
    return {re.sub(r"/min_time:[0-9.]+", "", b["name"]):
            b.get("items_per_second") or 1.0 / b["real_time"]
            for b in rows if b.get("run_type", "iteration") == "iteration"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", help="parent revision to build")
    ap.add_argument("--parent-build", help="existing parent build dir")
    ap.add_argument("--change-build", help="existing change build dir")
    ap.add_argument("--work", help="scratch dir (default: a temp dir)")
    args = ap.parse_args()
    if not args.parent_build and not args.base:
        die("give --base REV or --parent-build DIR")

    work = args.work or tempfile.mkdtemp(prefix="perf_ab.")
    parent = args.parent_build
    if not parent:
        export_rev(args.base, os.path.join(work, "parent-src"))
        parent = os.path.join(work, "parent-build")
        build(os.path.join(work, "parent-src"), parent)
    change = args.change_build
    if not change:
        change = os.path.join(work, "change-build")
        build(REPO, change)

    sides = {"parent": parent, "change": change}
    samples = {"parent": {}, "change": {}}
    for i in range(RUNS):
        order = ["parent", "change"][::1 if i % 2 == 0 else -1]
        for binary, filt in BENCHES:
            for side in order:
                out = os.path.join(work, f"{side}-{binary}-{i}.json")
                got = speeds(sides[side], binary, filt, out)
                for name, v in got.items():
                    samples[side].setdefault(name, []).append(v)

    failed = 0
    print(f"{'row (median speed)':<44} {'parent':>11} {'change':>11} "
          f"{'ratio':>7} {'bound':>6}  verdict")
    for name in sorted(set(samples["parent"]) | set(samples["change"])):
        p = samples["parent"].get(name)
        c = samples["change"].get(name)
        if not p or not c or len(p) != len(c):
            print(f"{name:<44} {'':>35}  not on both sides: ungated")
            continue
        ratio = statistics.median(cv / pv for pv, cv in zip(p, c))
        med = statistics.median(p)
        bound = BOUND + statistics.median(abs(v - med) for v in p) / med
        gated = not name.startswith(("BM_Ref", "BM_Malloc"))
        ok = ratio >= 1.0 - bound or not gated
        failed += not ok
        verdict = "SLOWER" if not ok else "ok" if gated else "reference"
        print(f"{name:<44} {med:>11.4g} {statistics.median(c):>11.4g} "
              f"{ratio:>7.3f} {bound:>6.3f}  {verdict}")
    print(f"RESULT: {'REGRESSION' if failed else 'OK'} "
          f"({failed} row(s) below their bound, {RUNS} runs a side)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
