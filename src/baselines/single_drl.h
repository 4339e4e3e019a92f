// "DRL-based" baseline (Zhan & Zhang, INFOCOM'20 — ref [8] of the paper):
// a single PPO agent that prices every node directly and optimizes a
// *myopic single-round* objective built from learning time and energy
// consumption. It has no budget/round-index observation and no long-term
// credit (γ = 0), which is exactly the paper's criticism of it.
#pragma once

#include <vector>

#include "core/episode.h"
#include "rl/ppo.h"

namespace chiron::baselines {

using core::EdgeLearnEnv;
using core::EpisodeStats;

struct SingleDrlConfig {
  int episodes = 500;
  std::int64_t hidden = 64;
  double actor_lr = 3e-4;
  double critic_lr = 1e-3;
  double lr_decay = 0.95;
  int lr_decay_every = 20;
  double gamma = 0.0;          // myopic: single-round optimization
  double gae_lambda = 0.95;
  int update_epochs = 10;
  double clip_ratio = 0.2;
  double entropy_coef = 1e-3;
  float init_log_std = -0.5f;
  // w_E in r = −(T_k + w_E·E_k)/time_norm. The default optimizes learning
  // time alone, which reproduces [8]'s observed behaviour of buying speed
  // every round with no budget pacing.
  double energy_weight = 0.0;
  /// Episodes per PPO batch (see ChironConfig::episodes_per_update).
  int episodes_per_update = 5;
  std::uint64_t seed = 11;
};

class SingleAgentDrlMechanism : private core::PricingPolicy {
 public:
  SingleAgentDrlMechanism(EdgeLearnEnv& env, const SingleDrlConfig& config);

  std::vector<EpisodeStats> train(int episodes = -1);
  /// Mean stats over `episodes` stochastic no-learning rollouts.
  EpisodeStats evaluate(int episodes = 5);

  rl::PpoAgent& agent() { return agent_; }

 private:
  // Not pipelinable: the observation needs round k's result (§5.15).
  void begin_episode(const EdgeLearnEnv& env) override;
  std::vector<double> act(const EdgeLearnEnv& env) override;
  void observe(const core::StepResult& res) override;
  void end_episode(const EpisodeStats& stats, bool pipelined) override;

  EdgeLearnEnv& env_;
  SingleDrlConfig config_;
  Rng rng_;
  rl::PpoAgent agent_;
  rl::RolloutBuffer buffer_;
  int episodes_done_ = 0;
  bool learn_ = false;  // train() learns, evaluate() only rolls out
  /// Myopic observation: last round's (ζ, p, T) per node, normalized;
  /// zeroed at reset.
  std::vector<float> last_profile_;
  rl::Transition pending_;  // the posted round's obs and action
};

}  // namespace chiron::baselines
