"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads sweep,replan --seeds 1-10 \\
        --out perfbench/out/summary.json [--trace 0] [--against FILE]

For every workload and metric it prints the median, the quartiles and the
spread, (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is marked UNSTEADY.
With --against, each median is also compared with the median in an
earlier summary and marked WORSE when it is worse by more than the bound.
Runs go one at a time, so they never compete with each other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, wall


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", metavar="SUMMARY")
    args = parser.parse_args()

    spec = {m["name"]: m for m in
            bench["per_layer" if args.trace else "end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    summary = {"seeds": args.seeds, "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values, walls, bad = {}, [], []
        for seed in args.seeds:
            rc, result, wall = run_one(workload, seed, args.seconds,
                                       args.trace)
            walls.append(wall)
            if rc != 0 or result is None or not result["correct"]:
                bad.append(seed)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f}s", flush=True)
        entry = {"failed_seeds": bad, "run_wall_s": summarise(walls),
                 "metrics": {}}
        ok = ok and not bad
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s = summarise(vals)
            entry["metrics"][name] = s
            m = spec.get(name, {})
            bound = m.get("bound")
            flags = []
            if bound is not None and s["spread"] > bound / 3:
                flags.append("UNSTEADY")
            if bound is not None and earlier is not None:
                old = earlier.get(workload, {}).get("metrics", {}).get(name)
                if old:
                    change = (s["median"] - old["median"]) / old["median"]
                    worse = -change if m["better"] == "higher" else change
                    s["change_vs_earlier"] = change
                    if worse > bound:
                        flags.append("WORSE")
            ok = ok and not flags
            print(f"  {name:44s} median {s['median']:12.6g} "
                  f"spread {s['spread']:7.4f} bound {bound} "
                  f"{' '.join(flags)}", flush=True)
        if bad:
            print(f"  failed seeds: {bad}")
        summary["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
