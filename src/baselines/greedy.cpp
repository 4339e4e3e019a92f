#include "baselines/greedy.h"

#include "common/error.h"

namespace chiron::baselines {

GreedyMechanism::GreedyMechanism(EdgeLearnEnv& env,
                                 const GreedyConfig& config)
    : env_(env), config_(config), rng_(config.seed) {
  CHIRON_CHECK(config_.episodes >= 1);
  CHIRON_CHECK(config_.seed_actions >= 1);
  CHIRON_CHECK(config_.epsilon >= 0.0 && config_.epsilon <= 1.0);
}

std::vector<double> GreedyMechanism::random_prices() {
  std::vector<double> prices(static_cast<std::size_t>(env_.num_nodes()));
  for (int i = 0; i < env_.num_nodes(); ++i)
    prices[static_cast<std::size_t>(i)] =
        rng_.uniform(0.0, env_.per_node_price_cap(i));
  return prices;
}

const GreedyMechanism::Entry* GreedyMechanism::best_entry() const {
  const Entry* best = nullptr;
  for (const auto& e : replay_)
    if (best == nullptr || e.reward > best->reward) best = &e;
  return best;
}

std::vector<EpisodeStats> GreedyMechanism::train(int episodes) {
  explore_ = true;
  return core::run_episodes(env_, *this,
                            episodes >= 0 ? episodes : config_.episodes);
}

EpisodeStats GreedyMechanism::evaluate(int episodes) {
  explore_ = false;
  return core::mean_stats(core::run_episodes(env_, *this, episodes));
}

std::vector<double> GreedyMechanism::act(const EdgeLearnEnv&) {
  explored_.clear();
  const bool explore =
      explore_ && (actions_taken_ < config_.seed_actions ||
                   rng_.bernoulli(config_.epsilon));
  const Entry* best = explore ? nullptr : best_entry();
  if (best != nullptr) return best->prices;
  explored_ = random_prices();
  return explored_;
}

void GreedyMechanism::observe(const core::StepResult& res) {
  ++actions_taken_;
  if (!explored_.empty())
    replay_.push_back({std::move(explored_), res.raw_exterior_reward});
}

}  // namespace chiron::baselines
