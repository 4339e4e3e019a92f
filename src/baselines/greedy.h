// Greedy baseline (paper §VI-A): seeds a replay buffer with random pricing
// actions, then in each round replays the buffered action with the highest
// observed immediate reward with probability 1−ε, and explores a fresh
// random action with probability ε. The immediate reward is the server's
// own per-round utility λΔA − T_k, so the greedy choice chases fast,
// high-gain rounds with no regard for the remaining budget.
#pragma once

#include <vector>

#include "core/episode.h"

namespace chiron::baselines {

using core::EdgeLearnEnv;
using core::EpisodeStats;

struct GreedyConfig {
  int episodes = 100;
  int seed_actions = 30;   // random actions gathered before greed kicks in
  double epsilon = 0.1;    // exploration probability afterwards
  std::uint64_t seed = 13;
};

class GreedyMechanism : private core::PricingPolicy {
 public:
  GreedyMechanism(EdgeLearnEnv& env, const GreedyConfig& config);

  std::vector<EpisodeStats> train(int episodes = -1);
  /// Pure exploitation: always plays the best buffered action. Averages
  /// `episodes` rollouts (accuracy noise only; the action is fixed).
  EpisodeStats evaluate(int episodes = 3);

  std::size_t buffer_size() const { return replay_.size(); }

 private:
  struct Entry {
    std::vector<double> prices;
    double reward;
  };

  // Not pipelinable: the replay reward needs round k's result (§5.15).
  std::vector<double> act(const EdgeLearnEnv& env) override;
  void observe(const core::StepResult& res) override;

  std::vector<double> random_prices();
  const Entry* best_entry() const;

  EdgeLearnEnv& env_;
  GreedyConfig config_;
  Rng rng_;
  std::vector<Entry> replay_;
  int actions_taken_ = 0;
  bool explore_ = false;        // train() explores, evaluate() exploits
  std::vector<double> explored_;  // the posted random action, if any
};

}  // namespace chiron::baselines
