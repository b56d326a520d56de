#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload explore-xcp|search-res152|serve-mix \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/bench.exe and
the mccm executable (bin/mccm_cli.exe, the daemon serve-mix launches)
with dune into .bench_build/, then runs the benchmark and passes its
output and exit code through.  The result line holds exactly the
metrics BENCHMARK.json lists for the mode: its end_to_end metrics with
--trace 0, its per_layer metrics with --trace 1.  Traced runs write
their spans under .bench_build/traces/.  Every file it writes stays
inside .bench_build/.

The benchmark runs in a process group of its own, so on a timeout the
whole group (daemon included) is killed and waited for.
"""

import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
DUNE_BUILD = os.path.join(BUILD_DIR, "dune")
TARGETS = ["perfbench/bench.exe", "bin/mccm_cli.exe"]
# A run must end within 180 s; leave room to kill and reap.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
REQUIRED = ["BENCHMARK.json", "dune-project", "lib", "bin/mccm_cli.ml", "perfbench/dune"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(DUNE_BUILD),
           "--profile", "release", "--display", "quiet"] + TARGETS
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")
    # Let the build's dirty pages reach the disk before anything is
    # timed; a write-back burst right after a build slowed first runs.
    os.sync()
    time.sleep(1.0)


def manifest_metrics(args):
    """The names BENCHMARK.json lists for the mode that args ask for."""
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    return [m["name"] for m in manifest["per_layer" if traced else "end_to_end"]]


def run(args):
    exe = os.path.join(DUNE_BUILD, "default", "perfbench", "bench.exe")
    mccm = os.path.join(DUNE_BUILD, "default", "bin", "mccm_cli.exe")
    traces = os.path.join(BUILD_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe] + args + ["--mccm", mccm, "--out", traces,
                          "--metrics", ",".join(manifest_metrics(args))]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out; killing it", file=sys.stderr)
        return 124
    finally:
        # Whatever happened, nothing the benchmark started outlives it:
        # kill its process group and wait until the group is empty.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            if proc.poll() is None:
                proc.wait()
            time.sleep(0.05)


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not the root of a checkout (missing: " + ", ".join(missing) + ")")
    build()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
