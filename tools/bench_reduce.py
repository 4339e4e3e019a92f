#!/usr/bin/env python3
"""Reduces google-benchmark JSON dumps into BENCH_substrate.json.

Input: one or more raw --benchmark_format=json outputs (micro_substrate,
serve_load, any other google-benchmark binary from the same run), plus
the frozen pre-PR baseline (tools/bench_baseline_pre_pr.json). Output: a
small machine-readable summary at the repo root that records the current
numbers next to the pre-PR ones and the speedup per benchmark, so every
later PR can be judged against the trajectory.

An optional `--adversary-tsv <path>` merges the adversary_sweep harness's
TSV (mechanism regret vs honest runs across adversary fractions, defenses
off/on) into the summary under the "adversary_sweep" key.

`--before <BENCH_substrate.json>` takes the "current" rows of a trajectory
regenerated from the previous commit on the same host and records them
under "before", with "speedup_vs_before" per benchmark: the same-host
before/after pair a perf change is judged on.

`--build-type <type>` records the CMake build type the benchmarks were
compiled with. google-benchmark's own `library_build_type` describes the
*benchmark library*, not this repo's code, and has previously stamped a
RelWithDebInfo run as "debug"; the explicit flag is authoritative. A
Debug (or unknown) build type prints a loud warning, because optimized
and unoptimized timings must never be compared on the same trajectory.

The output context records the host's CPU count and the GEMM variant the
micro benchmarks ran (`chiron_isa`, see DESIGN.md §5.7).

Usage: bench_reduce.py [--adversary-tsv sweep.tsv] [--build-type T]
       [--before before.json] <raw.json> [...] <baseline.json> <out.json>
"""
import json
import sys

# User counters worth keeping in the trajectory (throughput/latency of
# the serving path, the QPS knee, large-N round throughput). Everything
# else google-benchmark emits per run (items_per_second etc.) is
# derivable from the times.
KEPT_COUNTERS = ("nodes_per_sec", "p50_us", "p99_us", "knee_qps",
                 "knee_p99_us")

# The §5.12 scale acceptance pair: the scaled round's nodes/sec over the
# naive all-replica round's at N=10k, reported as its own section so the
# ≥100× criterion is a single JSON lookup.
SCALE_FULL = "BM_FedRoundFull/10000"
SCALE_SCALED = "BM_FedRoundScaled/10000"

# The §5.14 round-pipeline acceptance pair: sequential step() vs
# step_pipelined() on the eval-heavy real-training market. Reported as
# its own section with BOTH ratios: wall-clock (needs a spare core for
# the stage thread) and main-thread critical path (cpu_time excludes the
# blocked join wait, so it measures the latency the pipeline hides even
# when the host has a single CPU and the two threads merely time-slice).
PIPE_OFF = "BM_PipelinedRound/0/real_time"
PIPE_ON = "BM_PipelinedRound/1/real_time"


def read_adversary_tsv(path):
    """Parses the adversary_sweep TSV into a list of row dicts, with
    numeric cells converted so the JSON is directly comparable."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        raise SystemExit(f"bench_reduce: empty adversary sweep at {path}")
    header = lines[0].split("\t")
    rows = []
    for ln in lines[1:]:
        cells = ln.split("\t")
        if len(cells) != len(header):
            raise SystemExit(
                f"bench_reduce: ragged adversary sweep row in {path}: {ln!r}")
        row = {}
        for key, cell in zip(header, cells):
            try:
                row[key] = float(cell) if "." in cell else int(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return rows


def speedups(base_rows, current):
    """real_time ratio base/current per benchmark present in both with the
    same time unit."""
    out = {}
    for name, cur in current.items():
        base = base_rows.get(name)
        if base is None or base.get("time_unit") != cur["time_unit"]:
            continue
        if cur["real_time"] > 0:
            out[name] = round(base["real_time"] / cur["real_time"], 3)
    return out


def take_option(args, flag):
    """Removes `flag <value>` from args and returns the value (None if the
    flag is absent); exits with usage if the value is missing."""
    if flag not in args:
        return None
    i = args.index(flag)
    if i + 1 >= len(args):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    value = args[i + 1]
    del args[i:i + 2]
    return value


def main() -> int:
    args = sys.argv[1:]
    adversary_tsv = take_option(args, "--adversary-tsv")
    adversary_rows = (read_adversary_tsv(adversary_tsv)
                      if adversary_tsv is not None else None)
    build_type = take_option(args, "--build-type")
    before_path = take_option(args, "--before")
    if len(args) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    raw_paths = args[:-2]
    baseline_path, out_path = args[-2:]

    raws = []
    for path in raw_paths:
        with open(path) as f:
            raws.append(json.load(f))
    with open(baseline_path) as f:
        baseline = json.load(f)

    current = {}
    for raw in raws:
        for b in raw.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            entry = {
                "real_time": b["real_time"],
                "cpu_time": b["cpu_time"],
                "time_unit": b["time_unit"],
            }
            counters = {k: b[k] for k in KEPT_COUNTERS if k in b}
            if counters:
                entry["counters"] = counters
            current[b["name"]] = entry
    if not current:
        print("bench_reduce: no benchmarks in " + ", ".join(raw_paths),
              file=sys.stderr)
        return 1

    speedup = speedups(baseline.get("benchmarks", {}), current)
    before = None
    if before_path is not None:
        with open(before_path) as f:
            prior = json.load(f)
        before = {"context": prior["context"], "benchmarks": prior["current"]}

    context = raws[0]["context"]
    if build_type is None:
        build_type = context.get("library_build_type", "unknown")
    if build_type.lower() not in ("release", "relwithdebinfo", "minsizerel"):
        print("=" * 72, file=sys.stderr)
        print(f"bench_reduce: WARNING: build_type is {build_type!r} — "
              "these timings are NOT comparable to the optimized "
              "trajectory.", file=sys.stderr)
        print("bench_reduce: rerun via tools/bench_substrate.sh "
              "(RelWithDebInfo) before trusting BENCH_substrate.json.",
              file=sys.stderr)
        print("=" * 72, file=sys.stderr)
    out = {
        "schema": 1,
        "context": {
            "date": context["date"],
            "host_name": context["host_name"],
            "num_cpus": context["num_cpus"],
            "chiron_isa": context.get("chiron_isa", "unknown"),
            "build_type": build_type,
        },
        "baseline_pre_pr": baseline,
        "current": current,
        "speedup_vs_pre_pr": speedup,
    }
    if before is not None:
        out["before"] = before
        out["speedup_vs_before"] = speedups(before["benchmarks"], current)
    full = current.get(SCALE_FULL, {}).get("counters", {})
    scaled = current.get(SCALE_SCALED, {}).get("counters", {})
    if "nodes_per_sec" in full and "nodes_per_sec" in scaled:
        out["scale_10k"] = {
            "full_replica_nodes_per_sec": full["nodes_per_sec"],
            "scaled_round_nodes_per_sec": scaled["nodes_per_sec"],
            "speedup": round(
                scaled["nodes_per_sec"] / full["nodes_per_sec"], 2),
        }
    pipe_off = current.get(PIPE_OFF)
    pipe_on = current.get(PIPE_ON)
    if pipe_off and pipe_on and pipe_on["real_time"] > 0 \
            and pipe_on["cpu_time"] > 0:
        pipeline = {
            "sequential_round_ms": round(pipe_off["real_time"], 3),
            "pipelined_round_ms": round(pipe_on["real_time"], 3),
            "wall_speedup": round(
                pipe_off["real_time"] / pipe_on["real_time"], 3),
            "sequential_main_thread_ms": round(pipe_off["cpu_time"], 3),
            "pipelined_main_thread_ms": round(pipe_on["cpu_time"], 3),
            "critical_path_speedup": round(
                pipe_off["cpu_time"] / pipe_on["cpu_time"], 3),
        }
        if context["num_cpus"] < 2:
            pipeline["note"] = (
                "single-CPU host: the stage thread time-slices the same "
                "core, so wall_speedup cannot exceed 1x here; "
                "critical_path_speedup is the hardware-independent "
                "measure of the evaluation latency the pipeline hides "
                "(= the wall speedup once a second core exists)")
        out["pipeline"] = pipeline
    if adversary_rows is not None:
        out["adversary_sweep"] = adversary_rows
    with open(out_path, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")

    width = max(len(n) for n in current)
    for name in sorted(current):
        line = f"{name:<{width}}  {current[name]['real_time']:14.1f} {current[name]['time_unit']}"
        if name in speedup:
            line += f"  ({speedup[name]:.2f}x vs pre-PR)"
        if before is not None and name in out["speedup_vs_before"]:
            line += f"  ({out['speedup_vs_before'][name]:.2f}x vs before)"
        print(line)
    if "scale_10k" in out:
        s = out["scale_10k"]
        print(f"scale_10k: scaled round is {s['speedup']:.1f}x the "
              "full-replica path (nodes/sec at N=10k)")
    if "pipeline" in out:
        p = out["pipeline"]
        print(f"pipeline: {p['wall_speedup']:.2f}x wall, "
              f"{p['critical_path_speedup']:.2f}x main-thread critical "
              "path vs the sequential round")
    return 0


if __name__ == "__main__":
    sys.exit(main())
