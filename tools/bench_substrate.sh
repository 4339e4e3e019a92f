#!/usr/bin/env bash
# Runs the substrate micro-benchmarks (tensor kernels, CNN step, the
# parallel FedAvg round), the serving load harness and the large-N scale
# sweep, and regenerates BENCH_substrate.json at the repo root: the
# machine-readable perf trajectory every PR is judged against.
#
# The build uses the default RelWithDebInfo configuration — the same one
# the acceptance numbers are defined on. Pass a build dir to reuse one.
# The configured CMAKE_BUILD_TYPE is recorded in the output context (and
# bench_reduce.py warns loudly on Debug), so a debug-built trajectory can
# never silently poison comparisons again.
#
# Usage: tools/bench_substrate.sh [build-dir]      (default: build-bench)
#   CHIRON_BENCH_BEFORE        a BENCH_substrate.json regenerated from the
#                              previous commit on this host; its rows are
#                              kept as "before" (see bench_reduce.py)
#   CHIRON_BENCH_FILTER        micro_substrate regex (default: trajectory set)
#   CHIRON_SERVE_BENCH_FILTER  serve_load regex (default: grid + knee ramp)
#   CHIRON_SCALE_BENCH_FILTER  scale_sweep regex (default: the full sweep)
#   CHIRON_ADV_SWEEP_EPISODES  adversary_sweep training episodes (default 120)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
BUILD_TYPE="RelWithDebInfo"
FILTER="${CHIRON_BENCH_FILTER:-BM_MatmulSquare|BM_MatmulSmallM|BM_Im2col|BM_MnistCnn|BM_ParallelRound|BM_PipelinedRound}"
SERVE_FILTER="${CHIRON_SERVE_BENCH_FILTER:-BM_ServeLoad|BM_PriceBatch|BM_ServeKnee}"
SCALE_FILTER="${CHIRON_SCALE_BENCH_FILTER:-BM_EconRound|BM_FedRound|BM_EnvStep}"
ADV_EPISODES="${CHIRON_ADV_SWEEP_EPISODES:-120}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE" >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target micro_substrate serve_load scale_sweep adversary_sweep

BIN="$BUILD_DIR/bench/micro_substrate"
SERVE_BIN="$BUILD_DIR/bench/serve_load"
SCALE_BIN="$BUILD_DIR/bench/scale_sweep"
ADV_BIN="$BUILD_DIR/bench/adversary_sweep"
for b in "$BIN" "$SERVE_BIN" "$SCALE_BIN" "$ADV_BIN"; do
  if [[ ! -x "$b" ]]; then
    echo "bench_substrate: FATAL: $b missing after build —" \
         "the perf trajectory cannot be regenerated" >&2
    exit 1
  fi
done

RAW="$(mktemp)"
SERVE_RAW="$(mktemp)"
SCALE_RAW="$(mktemp)"
ADV_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$SERVE_RAW" "$SCALE_RAW" "$ADV_RAW"' EXIT
"$BIN" --benchmark_filter="$FILTER" --benchmark_format=json > "$RAW"
"$SERVE_BIN" --benchmark_filter="$SERVE_FILTER" --benchmark_format=json \
  > "$SERVE_RAW"
"$SCALE_BIN" --benchmark_filter="$SCALE_FILTER" --benchmark_format=json \
  > "$SCALE_RAW"
CHIRON_EPISODES="$ADV_EPISODES" "$ADV_BIN" > "$ADV_RAW"

BEFORE_ARGS=()
if [[ -n "${CHIRON_BENCH_BEFORE:-}" ]]; then
  BEFORE_ARGS=(--before "$CHIRON_BENCH_BEFORE")
fi
python3 tools/bench_reduce.py --adversary-tsv "$ADV_RAW" \
  --build-type "$BUILD_TYPE" "${BEFORE_ARGS[@]}" \
  "$RAW" "$SERVE_RAW" "$SCALE_RAW" \
  tools/bench_baseline_pre_pr.json BENCH_substrate.json
echo "bench_substrate: wrote BENCH_substrate.json"
