// Shared configuration and runners for the experiment harnesses.
//
// Every harness reproduces one exhibit of the paper's evaluation (§VI).
// Every option is a command-line flag and a CHIRON_* environment variable
// named after it (--eval-episodes ↔ CHIRON_EVAL_EPISODES). The flag wins;
// both go through the same checked parsers and range rules, so a
// malformed value of either is a named error:
//   --episodes E        DRL training episodes (Greedy: max(1, E/4))
//   --eval-episodes N   evaluation episodes to average (default 5)
//   --real-training     real federated CNN training (paper §VI-A) instead
//                       of the calibrated surrogate (DESIGN.md §3); the
//                       variable takes 0 or 1
//   --seed S            base RNG seed (default 97)
//   --threads T         runtime pool size, 0 = all hardware threads;
//                       results are identical either way (DESIGN.md §5.5)
//   --pipeline          double-buffered round pipeline (DESIGN.md §5.14),
//                       byte-identical outputs; CHIRON_PIPELINE=1
//   --round-log PATH    structured round log, .jsonl or .csv (§5.9)
//   --metrics-out PATH  end-of-run metrics JSON snapshot
//   --trace PATH        span trace (JSONL)
//   --nodes N           market size where a harness takes one (0 = its own)
//   --shards S, --max-replicas R  scaling knobs (DESIGN.md §5.12)
//   --adv-fraction, --adv-misreport, --adv-freeride, --adv-churn
//                       adversarial-market knobs (DESIGN.md §5.11)
//   --reserve-price, --audit-prob, --audit-tolerance, --reputation-alpha
//                       mechanism defenses; all off by default
#pragma once

#include <functional>
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

/// Reads every option from its flag, else its variable (see the table
/// above), and sizes the runtime pool. Unknown flags are a hard error so
/// typos don't silently fall back to defaults.
HarnessOptions read_options(int argc, const char* const* argv);

/// A harness-specific 0|1 switch that exists only as the environment
/// variable `var`, parsed like a switch flag's variable: unset is
/// `fallback`, anything but 0 or 1 is a named error.
bool env_switch(const char* var, bool fallback);

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

/// DRL-based baseline config for the harnesses (opt.drl_episodes).
baselines::SingleDrlConfig make_drl_config(const HarnessOptions& opt);

/// What one trained mechanism reports.
struct TrainedRun {
  std::vector<core::EpisodeStats> training;  // one entry per episode
  core::EpisodeStats eval;                   // mean of opt.eval_episodes
};

/// Builds a fresh market from `env_cfg` with the round log attached,
/// trains a `Mechanism` built from `config` and evaluates it. `inspect`,
/// when set, then sees the trained mechanism and its market.
template <class Mechanism, class Config>
TrainedRun train_and_evaluate(
    const core::EnvConfig& env_cfg, const Config& config,
    const HarnessOptions& opt,
    const std::function<void(Mechanism&, core::EdgeLearnEnv&)>& inspect =
        {}) {
  core::EdgeLearnEnv env(env_cfg);
  env.set_round_sink(opt.round_sink);
  Mechanism mech(env, config);
  TrainedRun run{mech.train(), mech.evaluate(opt.eval_episodes)};
  if (inspect) inspect(mech, env);
  return run;
}

/// Approach rows of the comparison figures.
struct ApproachResult {
  std::string name;
  core::EpisodeStats stats;
};

/// Trains and evaluates all three approaches on identical markets.
std::vector<ApproachResult> compare_approaches(const core::EnvConfig& env_cfg,
                                               const HarnessOptions& opt);

/// The Fig. 4/5/6 harness body: for each budget, compare_approaches on a
/// 5-node `task` market, one TSV row per (budget, approach). `tag`
/// prefixes the progress lines on stderr.
int run_budget_sweep(int argc, char** argv, data::VisionTask task,
                     const std::vector<double>& budgets, const char* tag);

/// Smoothed per-episode reward series (window 10) for convergence plots.
std::vector<double> reward_series(const std::vector<core::EpisodeStats>& eps);

/// Mean raw reward of the last min(width, n) of n >= 1 training episodes:
/// the converged end of a training curve, narrowed for short runs.
double tail_reward(const std::vector<core::EpisodeStats>& eps,
                   std::size_t width = 10);

}  // namespace chiron::bench
