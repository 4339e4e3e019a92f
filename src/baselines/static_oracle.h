// Complete-information static benchmark, derived from the paper's §IV
// "Optimal Strategy Analysis": if the server *did* know every node's
// private parameters, the best time-consistent stationary policy is a
// fixed total price split by the Lemma-1 equal-time allocation. This
// mechanism searches the 1-D total-price fraction directly (no learning)
// and serves as an upper-bound sanity reference for what Chiron's two
// agents must discover without that knowledge.
#pragma once

#include <vector>

#include "core/episode.h"

namespace chiron::baselines {

using core::EdgeLearnEnv;
using core::EpisodeStats;

struct StaticOracleConfig {
  /// Number of log-spaced candidate fractions of env.price_cap().
  int candidates = 16;
  double min_fraction = 0.02;
  double max_fraction = 1.0;
  /// Episodes averaged per candidate during the search.
  int episodes_per_candidate = 2;
};

class StaticOracleMechanism : private core::PricingPolicy {
 public:
  StaticOracleMechanism(EdgeLearnEnv& env, const StaticOracleConfig& config);

  /// Evaluates every candidate fraction and fixes the best one (by mean
  /// raw episode reward). Returns the best candidate's stats.
  EpisodeStats search();

  /// Runs the fixed best policy (search() must have been called).
  EpisodeStats evaluate(int episodes = 5);

  double best_fraction() const { return best_fraction_; }

 private:
  /// Mean stats of `episodes` episodes at total price fraction·price_cap.
  EpisodeStats run_fraction(double fraction, int episodes);

  // Fixed prices read no round result, so the episode may pipeline.
  bool pipelinable() const override { return true; }
  void begin_episode(const EdgeLearnEnv& env) override;
  std::vector<double> act(const EdgeLearnEnv&) override { return prices_; }

  EdgeLearnEnv& env_;
  StaticOracleConfig config_;
  double best_fraction_ = -1.0;
  double fraction_ = 0.0;        // the fraction being played
  std::vector<double> prices_;   // its Lemma-1 prices for this episode
};

}  // namespace chiron::baselines
