// Shared configuration and runners for the experiment harnesses.
//
// Every harness reproduces one exhibit of the paper's evaluation (§VI).
// Scale knobs come from the environment so the full paper-scale runs are a
// variable away:
//   CHIRON_EPISODES       override DRL training episodes (default: fast)
//   CHIRON_EVAL_EPISODES  evaluation episodes to average (default 5)
//   CHIRON_REAL_TRAINING  "1" → real federated CNN training backend
//                         (paper §VI-A) instead of the calibrated
//                         surrogate curve; see DESIGN.md §3
//   CHIRON_SEED           base RNG seed (default 97)
//   CHIRON_THREADS        runtime pool size; 0 or unset → all hardware
//                         threads (results are identical either way —
//                         see DESIGN.md "Runtime & threading model")
//   CHIRON_PIPELINE       "1" → double-buffered round pipeline (overlap
//                         eval + PPO update with training; DESIGN.md
//                         §5.14); byte-identical outputs, faster rounds
//   CHIRON_ROUND_LOG      path for the structured round log (.jsonl or
//                         .csv; see DESIGN.md §5.9)
//   CHIRON_METRICS_OUT    path for the end-of-run metrics JSON snapshot
//   CHIRON_TRACE          path for the span trace (JSONL)
//   CHIRON_ADV_FRACTION / CHIRON_ADV_MISREPORT / CHIRON_ADV_FREERIDE /
//   CHIRON_ADV_CHURN      adversarial-market knobs (DESIGN.md §5.11)
//   CHIRON_RESERVE_PRICE / CHIRON_AUDIT_PROB / CHIRON_AUDIT_TOLERANCE /
//   CHIRON_REPUTATION_ALPHA  mechanism defenses; all zero/off by default
//   CHIRON_NODES          market size override for harnesses that take one
//                         (0 or unset = harness default)
//   CHIRON_SHARDS / CHIRON_MAX_REPLICAS  scaling knobs (DESIGN.md §5.12):
//                         aggregation tree fan-in and the lightweight-node
//                         replica budget
//
// Each harness also accepts the equivalent command-line flags
// (--round-log, --metrics-out, --trace, --threads, --pipeline, --seed,
// --episodes, --nodes, --shards, --max-replicas,
// --adv-fraction, --adv-misreport, --adv-freeride, --adv-churn,
// --reserve-price, --audit-prob, --audit-tolerance, --reputation-alpha),
// which take precedence over the environment.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/greedy.h"
#include "baselines/single_drl.h"
#include "core/mechanism.h"
#include "obs/round_log.h"

namespace chiron::bench {

struct HarnessOptions {
  int chiron_episodes = 600;
  int drl_episodes = 200;
  int greedy_episodes = 60;
  int eval_episodes = 5;
  bool real_training = false;
  std::uint64_t seed = 97;
  int threads = 0;  // 0 = auto (hardware concurrency)
  /// Double-buffered round pipeline (DESIGN.md §5.14): overlap round k-1's
  /// evaluation and the batch PPO update with round k's training. Results
  /// are byte-identical on or off; this is a wall-clock knob only.
  bool pipeline = false;
  // Market-size override for harnesses with a scalable node count
  // (fig7_scalability, scale sweeps); 0 = keep the harness default.
  int nodes = 0;
  // Scaling knobs (DESIGN.md §5.12), applied to every market make_market
  // builds. Defaults keep the flat legacy paths byte-identical.
  int shards = 1;        // aggregation tree fan-in (real backends)
  int max_replicas = 0;  // lightweight-node replica budget; 0 = all
  // Observability outputs; empty = off (and zero overhead, DESIGN.md §5.9).
  std::string round_log;
  std::string metrics_out;
  std::string trace_out;
  // Adversarial-market knobs (src/adversary; DESIGN.md §5.11). Applied to
  // every market make_market builds; all zero/off by default so existing
  // harness outputs stay byte-identical.
  double adv_fraction = 0.0;
  double adv_misreport = 1.0;
  double adv_freeride = 0.0;
  double adv_churn = 0.0;
  double reserve_price = 0.0;
  double audit_prob = 0.0;
  double audit_tolerance = 1.25;
  double reputation_alpha = 0.0;
  // Attached to every env the harness builds (set by ObsSession).
  obs::RoundSink* round_sink = nullptr;
};

/// The top-level handler every bench main runs its body under. An
/// exception escaping `body` (a bad flag or CHIRON_* value is a
/// chiron::InvariantError) prints "<program>: error: <what>" on stderr and
/// exits 2 instead of aborting. The GEMM variant is resolved before `body`
/// runs, so a bad CHIRON_ISA is reported here and not from a worker.
int harness_main(int argc, char** argv, int (*body)(int, char**));

/// Reads the CHIRON_* environment overrides on top of the defaults and
/// sizes the runtime pool (runtime::set_threads) from CHIRON_THREADS so
/// every harness runs on the pool.
HarnessOptions read_options();

/// read_options() plus command-line flags, which win over the
/// environment: --episodes, --eval-episodes, --real-training, --seed,
/// --threads, --round-log, --metrics-out, --trace. Unknown flags are a
/// hard error so typos don't silently fall back to defaults.
HarnessOptions read_options(int argc, const char* const* argv);

/// RAII scope for a harness run's observability: enables the metrics
/// registry / span tracing when the matching output paths are set, opens
/// the round sink and points opt.round_sink at it, and on destruction
/// writes the metrics snapshot and trace files and disables everything
/// again. Declare one right after read_options() and keep it alive for
/// the whole run.
class ObsSession {
 public:
  explicit ObsSession(HarnessOptions& opt);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::unique_ptr<obs::RoundSink> sink_;
  std::string metrics_out_;
  std::string trace_out_;
};

/// Market (environment) for an N-node experiment on one vision task. A
/// fixed data corpus (5e8 bits ≈ 20k MNIST images) is split evenly across
/// nodes, so per-node compute shrinks as N grows, as in the paper's
/// scale-out experiment. The CIFAR-like task's extra difficulty
/// lives in its slower learning curve and larger budget range ("this
/// leads to different budget constraints", §VI-B).
core::EnvConfig make_market(data::VisionTask task, int num_nodes,
                            double budget, const HarnessOptions& opt);

/// Chiron mechanism config tuned for the reduced-episode regime. At scale
/// (N ≥ 50) episodes are longer and allocation noise hits participation
/// floors harder, so the exterior credit horizon is lengthened (γ 0.99)
/// and the inner exploration noise lowered.
core::ChironConfig make_chiron_config(const HarnessOptions& opt,
                                      int num_nodes = 5);

/// Approach rows of the comparison figures.
struct ApproachResult {
  std::string name;
  core::EpisodeStats stats;
};

/// Trains and evaluates all three approaches on identical markets.
std::vector<ApproachResult> compare_approaches(const core::EnvConfig& env_cfg,
                                               const HarnessOptions& opt);

/// Smoothed per-episode reward series (window 10) for convergence plots.
std::vector<double> reward_series(const std::vector<core::EpisodeStats>& eps);

}  // namespace chiron::bench
