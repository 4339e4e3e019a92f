#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--out perfbench/steadiness.json]

Run from the repository root. Runs perfbench/run.py --runs times per
workload, each with another --seed, at BENCHMARK.json's run_seconds, and
records for every end-to-end metric its median, quartiles
(statistics.quantiles(values, n=4)) and spread = (Q3 - Q1) / median. A
metric is steady when its spread is below a third of its bound (setup_s
is reported but exempt: its spread is allowed to exceed its bound, its
median is not). Also records the run
context (host CPUs, build type, compiler flags) printed by chiron_perfbench.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    context = None
    for ln in proc.stderr.splitlines():
        if ln.startswith('{"context"'):
            context = json.loads(ln)["context"]
    return json.loads(proc.stdout.splitlines()[-1]), context, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=os.path.join("perfbench", "steadiness.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    report = {"run_seconds": bench["run_seconds"], "runs": args.runs,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    ok = True
    for wl in names:
        values = {}
        walls = []
        failed = 0
        for seed in report["seeds"]:
            res, ctx, wall = one_run(wl, seed, bench["run_seconds"])
            report["context"] = ctx
            walls.append(round(wall, 2))
            failed += res["failed"] + (0 if res["correct"] else 1)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            steady = name == "setup_s" or spread < bound / 3
            ok &= steady
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": round(spread, 4), "bound": bound,
                          "steady": steady, "values": vals}
            print(f"{wl:15s} {name:15s} median {med:12.5g} spread "
                  f"{spread:7.3%} bound {bound}{'' if steady else '  NOT STEADY'}",
                  file=sys.stderr)
        report["workloads"][wl] = {"metrics": rows, "failed_ops_or_checks": failed,
                                   "run_wall_s": walls}
    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
