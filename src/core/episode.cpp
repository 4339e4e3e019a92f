#include "core/episode.h"

#include "common/error.h"
#include "runtime/pipeline.h"

namespace chiron::core {

void accumulate(EpisodeStats& stats, const StepResult& step) {
  CHIRON_CHECK_MSG(!step.aborted, "aborted rounds are not recorded");
  ++stats.rounds;
  stats.exterior_reward_sum += step.reward_exterior;
  stats.raw_reward_sum += step.raw_exterior_reward;
  stats.inner_reward_sum += step.reward_inner;
  stats.final_accuracy = step.accuracy;
  stats.total_time += step.round_time;
  stats.spent += step.payment;
  if (step.participants > 0) {
    stats.efficiency_sum += step.time_efficiency;
    ++stats.active_rounds;
  }
}

void finalize(EpisodeStats& stats) {
  if (stats.active_rounds > 0)
    stats.mean_time_efficiency =
        stats.efficiency_sum / static_cast<double>(stats.active_rounds);
}

EpisodeStats mean_stats(const std::vector<EpisodeStats>& episodes) {
  CHIRON_CHECK(!episodes.empty());
  EpisodeStats m;
  const double n = static_cast<double>(episodes.size());
  double rounds = 0;
  for (const auto& e : episodes) {
    rounds += e.rounds;
    m.exterior_reward_sum += e.exterior_reward_sum / n;
    m.raw_reward_sum += e.raw_reward_sum / n;
    m.inner_reward_sum += e.inner_reward_sum / n;
    m.final_accuracy += e.final_accuracy / n;
    m.total_time += e.total_time / n;
    m.spent += e.spent / n;
    m.mean_time_efficiency += e.mean_time_efficiency / n;
  }
  m.rounds = static_cast<int>(rounds / n + 0.5);
  return m;
}

double mean_raw_reward(const std::vector<EpisodeStats>& episodes,
                       std::size_t from, std::size_t to) {
  CHIRON_CHECK(from < to && to <= episodes.size());
  double acc = 0.0;
  for (std::size_t i = from; i < to; ++i) acc += episodes[i].raw_reward_sum;
  return acc / static_cast<double>(to - from);
}

EpisodeStats play_episode(EdgeLearnEnv& env, PricingPolicy& policy,
                          const RoundCallback& on_round) {
  const bool pipelined = policy.pipelinable() && runtime::pipeline_enabled();
  EpisodeStats stats;
  auto record = [&](const StepResult& res) {
    accumulate(stats, res);
    policy.observe(res);
    if (on_round) on_round(res);
  };
  env.reset();
  policy.begin_episode(env);
  while (!env.done()) {
    const std::vector<double> prices = policy.act(env);
    if (!pipelined) {
      const StepResult res = env.step(prices);
      if (res.aborted) break;
      record(res);
      continue;
    }
    // Round k's result arrives with round k+1's step (or from drain()).
    const EdgeLearnEnv::PipelinedStep out = env.step_pipelined(prices);
    if (out.prev_valid) record(out.prev);
    if (out.aborted) break;
  }
  if (env.has_pending()) record(env.drain());
  finalize(stats);
  policy.end_episode(stats, pipelined);
  return stats;
}

std::vector<EpisodeStats> run_episodes(EdgeLearnEnv& env,
                                       PricingPolicy& policy, int episodes) {
  CHIRON_CHECK(episodes >= 0);
  std::vector<EpisodeStats> out;
  out.reserve(static_cast<std::size_t>(episodes));
  for (int e = 0; e < episodes; ++e)
    out.push_back(play_episode(env, policy));
  return out;
}

}  // namespace chiron::core
