#!/usr/bin/env python3
"""Chiron end-to-end benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (a CMake project that pulls
in the chiron sources from the parent directory) as a Release build under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
chiron_perfbench. Build output goes to stderr; the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}. Its metrics are
exactly BENCHMARK.json's end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1); a layer the workload does not call reads 0.

Exits non-zero without printing a result when the sources are missing, the
build fails, chiron_perfbench fails, or its result line is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_cnn", "market_100k", "market_adv_10k", "serve_100")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("chiron sources (src/CMakeLists.txt) not found next to perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", out, "--target", "chiron_perfbench",
                "-j", jobs])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    out = build()
    exe = os.path.join(out, "chiron_perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        die("chiron_perfbench timed out")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        die(f"chiron_perfbench exited {proc.returncode}")
    for ln in lines[:-1]:
        print(ln, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("malformed result line: " + lines[-1])
    if set(result) != RESULT_KEYS:
        die("result line lacks the required keys: " + lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace == "1" else "end_to_end"]
    metrics = result["metrics"]
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        die("chiron_perfbench reported undeclared metrics: " + ", ".join(sorted(unknown)))
    for m in declared:
        if m["name"] not in metrics:
            if args.trace == "0":
                die("chiron_perfbench did not report " + m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
