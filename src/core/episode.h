// The episode loop shared by Chiron and the baselines, and the
// per-episode metrics it reports — exactly the quantities the paper's
// figures/tables report (final accuracy, completed rounds, time
// efficiency, spend, episode reward).
#pragma once

#include <functional>
#include <vector>

#include "core/env.h"

namespace chiron::core {

struct EpisodeStats {
  int rounds = 0;
  double exterior_reward_sum = 0.0;  // normalized reward units
  double raw_reward_sum = 0.0;       // paper units: Σ (λΔA − T_k)
  double inner_reward_sum = 0.0;
  double final_accuracy = 0.0;
  double total_time = 0.0;           // Σ T_k
  double spent = 0.0;                // Σ payments
  double mean_time_efficiency = 0.0; // mean of Eqn (16) over active rounds

  // Accumulation scratch (valid before finalize()).
  double efficiency_sum = 0.0;
  int active_rounds = 0;
};

/// Adds one executed (non-aborted) step to the stats.
void accumulate(EpisodeStats& stats, const StepResult& step);

/// Computes the derived means; call once after the episode ends.
void finalize(EpisodeStats& stats);

/// Column-mean of a window of episode stats (used by convergence plots).
double mean_raw_reward(const std::vector<EpisodeStats>& episodes,
                       std::size_t from, std::size_t to);

/// Field-wise mean over finalized episode stats (rounds rounded to the
/// nearest integer). Used by stochastic-policy evaluation.
EpisodeStats mean_stats(const std::vector<EpisodeStats>& episodes);

/// How a mechanism prices rounds; play_episode() owns the loop around it
/// (DESIGN.md §5.15). Per episode: begin_episode after the env reset, act
/// for every round posted, observe for every executed round in order —
/// never for the aborted round that ends an episode — then end_episode.
class PricingPolicy {
 public:
  virtual ~PricingPolicy() = default;

  /// True when act() for round k+1 reads env state alone, so play_episode
  /// may post it before observing round k (a fixed property of the class).
  virtual bool pipelinable() const { return false; }

  virtual void begin_episode(const EdgeLearnEnv& /*env*/) {}

  /// The per-node prices to post for the next round.
  virtual std::vector<double> act(const EdgeLearnEnv& env) = 0;

  virtual void observe(const StepResult& /*res*/) {}

  /// `stats` are finalized; `pipelined` says whether the episode ran on
  /// the round pipeline.
  virtual void end_episode(const EpisodeStats& /*stats*/,
                           bool /*pipelined*/) {}
};

/// Called with every executed round after the policy has observed it.
using RoundCallback = std::function<void(const StepResult&)>;

/// Resets `env` and plays one episode of `policy` until the env is done
/// or a round aborts (the discarded round of paper §V-A). Runs on the
/// double-buffered round pipeline when runtime::pipeline_enabled() and
/// the policy is pipelinable; the results are byte-identical either way.
EpisodeStats play_episode(EdgeLearnEnv& env, PricingPolicy& policy,
                          const RoundCallback& on_round = {});

/// `episodes` consecutive play_episode() runs, in order.
std::vector<EpisodeStats> run_episodes(EdgeLearnEnv& env,
                                       PricingPolicy& policy, int episodes);

}  // namespace chiron::core
