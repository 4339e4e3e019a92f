#!/usr/bin/env bash
# Round-pipeline determinism check (DESIGN.md §5.14).
#
# The double-buffered round pipeline overlaps round k-1's deferred
# evaluation and the batch PPO update with round k's training. Its
# contract is byte-for-byte identity: --pipeline must change wall-clock
# only, never a result bit, at any thread count. This script is the
# end-to-end form of the contract the unit tests pin
# (PipelineEnv.*ByteIdentical*, PipelineMechanism.*):
#
#   1. fig3 convergence (Chiron), fig4 (Chiron, DRL-based and Greedy;
#      the last two run sequentially under --pipeline) and
#      ablation_hierarchy (the static oracle, which pipelines) with the
#      pipeline OFF vs ON, at --threads 1 and 8: round logs and stdout
#      must be byte-identical in all four runs of each.
#   2. The pipelined fig3 run repeated under ThreadSanitizer, plus the
#      pipeline unit/env suites — the stage-thread hand-off must be
#      TSan-clean, not just deterministic by luck.
#
# Note: 12 episodes keeps fig3's early/late summary windows at their
# full 10-episode width (shorter runs narrow them).
#
# Usage: tools/check_pipeline.sh [build-dir] [tsan-build-dir]
#        (defaults: build, build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=tools/sanitize_common.sh
source tools/sanitize_common.sh
BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
HARNESSES=(fig3_convergence fig4_mnist_budget_sweep ablation_hierarchy)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DCHIRON_WERROR=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${HARNESSES[@]}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

run() {
  local harness="$1" mode="$2" threads="$3"
  local pipeline_flag=()
  [ "$mode" = "on" ] && pipeline_flag=(--pipeline)
  CHIRON_EVAL_EPISODES=2 "$BUILD_DIR/bench/$harness" --episodes 12 \
    --threads "$threads" "${pipeline_flag[@]}" \
    --round-log "$TMP/${harness}_rounds_${mode}_t$threads.jsonl" \
    > "$TMP/${harness}_stdout_${mode}_t$threads.txt"
}

for h in "${HARNESSES[@]}"; do
  for t in 1 8; do
    run "$h" off "$t"
    run "$h" on "$t"
    diff -u "$TMP/${h}_rounds_off_t$t.jsonl" "$TMP/${h}_rounds_on_t$t.jsonl" \
      || { echo "check_pipeline: FAIL ($h round log differs pipeline off vs on at --threads $t)"; exit 1; }
    diff -u "$TMP/${h}_stdout_off_t$t.txt" "$TMP/${h}_stdout_on_t$t.txt" \
      || { echo "check_pipeline: FAIL ($h stdout differs pipeline off vs on at --threads $t)"; exit 1; }
  done
  diff -u "$TMP/${h}_rounds_on_t1.jsonl" "$TMP/${h}_rounds_on_t8.jsonl" \
    || { echo "check_pipeline: FAIL ($h pipelined round log differs between --threads 1 and 8)"; exit 1; }
done

# The same pipelined run under ThreadSanitizer: the overlap must be
# clean, not merely deterministic. CHIRON_PIPELINE exercises the env
# default-on path on top of the --pipeline flag path above.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
chiron_sanitizer_configure thread "$TSAN_DIR"
cmake --build "$TSAN_DIR" -j"$(nproc)" \
  --target fig3_convergence test_runtime test_core
CHIRON_PIPELINE=1 "$TSAN_DIR/bench/fig3_convergence" --episodes 12 \
  --threads 8 --round-log "$TMP/rounds_tsan.jsonl" > /dev/null
"$TSAN_DIR/tests/test_runtime" --gtest_filter='RoundPipeline.*:PipelineFlag.*'
CHIRON_THREADS=8 "$TSAN_DIR/tests/test_core" \
  --gtest_filter='PipelineEnv.*:PipelineMechanism.*:EpisodeLoop.*'

echo "check_pipeline: OK (${HARNESSES[*]}: pipeline on ≡ off byte-for-byte at --threads 1 and 8; TSan-clean)"
