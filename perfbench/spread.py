#!/usr/bin/env python3
"""Repeat perfbench runs over seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(interquartile distance over the median) and the metric's bound from
BENCHMARK.json, and names every metric whose spread exceeds its bound.
With --trace 1 it reports the per-layer metrics instead (no bounds).
For --trace 0 it also prints the spread of the unscaled figures (before
the host-speed calibration) that each run's report line carries.
--out writes every run's result object as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="default: the workloads in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = open(args.out, "a") if args.out else None
    outside = []
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for w in names:
        values, raw = {}, {}
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - start
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if args.trace == 0 and len(lines) > 1:
                unscaled = json.loads(lines[-2]).get("counts", {}).get("unscaled", {})
                for name, v in unscaled.items():
                    raw.setdefault(name, []).append(v)
            if out:
                out.write(json.dumps({"workload": w, "seed": seed, "wall_s": wall, "result": res}) + "\n")
                out.flush()
            status = "ok" if res["correct"] and res["failed"] == 0 else "FAILED OPS"
            print(f"{w} seed {seed}: {wall:.1f} s, {res['attempted']} attempted, {res['failed']} failed ({status})",
                  flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name in sorted(values):
            vs = values[name]
            q1, q2, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            sp = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            note = ""
            if bound is not None and args.trace == 0:
                note = f"bound {bound:.2f}"
                if sp > bound and name != "setup_s":
                    note += "  OUTSIDE"
                    outside.append(f"{w}/{name}")
                elif sp > bound / 3:
                    note += "  above a third"
            print(f"  {w:7s} {name:42s} median {q2:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {sp:6.3f}  {note}")
        for name in sorted(raw):
            vs = raw[name]
            if len(vs) > 1:
                q1, q2, q3 = statistics.quantiles(vs, n=4)
                sp = (q3 - q1) / q2 if q2 else 0.0
                print(f"  {w:7s} unscaled {name:33s} median {q2:12.5g}  spread {sp:6.3f}")
    if outside:
        print("outside bound:", ", ".join(outside))
        sys.exit(1)


if __name__ == "__main__":
    main()
