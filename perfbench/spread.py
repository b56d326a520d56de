#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads explore-xcp,search-res152 \
        --seeds 1-10 [--seconds S] [--trace 0] [--json out.json]

Runs perfbench/run.py once per (workload, seed), in that order, from
the root of a checkout, and prints for every metric its median over the
runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound from BENCHMARK.json.  This is how the figures in
perfbench/EVIDENCE.md were made.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for w in a.workloads.split(","):
        for s in seeds_of(a.seeds):
            cmd = ["python3", "perfbench/run.py", "--workload", w, "--seed", str(s),
                   "--seconds", str(seconds), "--trace", a.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            raws = {}
            for line in lines:
                f = line.split()
                if len(f) == 5 and f[4] not in ("-", "raw"):
                    raws[f[0]] = float(f[4])
            runs.setdefault(w, []).append({"seed": s, "result": result, "raw": raws})
            ms = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{w} seed {s}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {ms}",
                  flush=True)
    for w, rs in runs.items():
        names = rs[0]["result"]["metrics"].keys()
        for n in names:
            for kind in ("value", "raw"):
                if kind == "raw":
                    vals = [r["raw"][n] for r in rs if n in r["raw"]]
                else:
                    vals = [r["result"]["metrics"][n]["value"] for r in rs]
                if len(vals) < 2:
                    continue
                med = statistics.median(vals)
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else float("nan")
                print(f"{w:14s} {n:22s} {kind:5s} median={med:.6g} "
                      f"iqr/median={spread:.4f} bound={bounds.get(n, '-')} n={len(vals)}")
    if a.json:
        json.dump(runs, open(a.json, "w"), indent=1)


if __name__ == "__main__":
    main()
