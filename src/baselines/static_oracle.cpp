#include "baselines/static_oracle.h"

#include <cmath>

#include "common/error.h"
#include "core/actions.h"

namespace chiron::baselines {

StaticOracleMechanism::StaticOracleMechanism(
    EdgeLearnEnv& env, const StaticOracleConfig& config)
    : env_(env), config_(config) {
  CHIRON_CHECK(config_.candidates >= 2);
  CHIRON_CHECK(config_.min_fraction > 0.0 &&
               config_.min_fraction < config_.max_fraction);
  CHIRON_CHECK(config_.max_fraction <= 1.0);
  CHIRON_CHECK(config_.episodes_per_candidate >= 1);
}

void StaticOracleMechanism::begin_episode(const EdgeLearnEnv& env) {
  const double p_total = fraction_ * env.price_cap();
  prices_ = core::combine_prices(p_total,
                                 env.equal_time_proportions(p_total));
}

EpisodeStats StaticOracleMechanism::run_fraction(double fraction,
                                                 int episodes) {
  fraction_ = fraction;
  return core::mean_stats(core::run_episodes(env_, *this, episodes));
}

EpisodeStats StaticOracleMechanism::search() {
  const double log_lo = std::log(config_.min_fraction);
  const double log_hi = std::log(config_.max_fraction);
  EpisodeStats best_stats;
  double best_reward = -1e300;
  for (int c = 0; c < config_.candidates; ++c) {
    const double t = static_cast<double>(c) /
                     static_cast<double>(config_.candidates - 1);
    const double fraction = std::exp(log_lo + t * (log_hi - log_lo));
    const EpisodeStats mean =
        run_fraction(fraction, config_.episodes_per_candidate);
    if (mean.raw_reward_sum > best_reward) {
      best_reward = mean.raw_reward_sum;
      best_fraction_ = fraction;
      best_stats = mean;
    }
  }
  return best_stats;
}

EpisodeStats StaticOracleMechanism::evaluate(int episodes) {
  CHIRON_CHECK_MSG(best_fraction_ > 0.0, "evaluate() before search()");
  return run_fraction(best_fraction_, episodes);
}

}  // namespace chiron::baselines
