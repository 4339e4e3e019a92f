// Contract of the episode loop (core/episode.h): with the round
// pipeline off and on, a policy observes exactly the executed rounds in
// order, never the aborted round that ends an episode, and each episode
// is bracketed by begin_episode/end_episode.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/episode.h"
#include "runtime/pipeline.h"

namespace chiron::core {
namespace {

// A budget sized for a handful of rounds: the rising schedule below
// overdraws mid-episode, so the abort lands while a round is in flight.
EnvConfig abort_config() {
  EnvConfig c;
  c.num_nodes = 5;
  c.budget = 18.0;
  c.backend = BackendKind::kSurrogate;
  c.seed = 33;
  c.max_rounds = 40;
  return c;
}

std::vector<double> scheduled_prices(const EdgeLearnEnv& env, int k) {
  std::vector<double> p;
  const double scale = 0.35 + 0.05 * static_cast<double>(k % 5);
  for (int i = 0; i < env.num_nodes(); ++i)
    p.push_back(env.per_node_price_cap(i) * scale);
  return p;
}

// Posts the schedule and logs every hook call.
class ScriptedPolicy : public PricingPolicy {
 public:
  explicit ScriptedPolicy(bool pipelinable) : pipelinable_(pipelinable) {}

  bool pipelinable() const override { return pipelinable_; }
  void begin_episode(const EdgeLearnEnv&) override {
    calls.push_back("begin");
    acted = 0;
  }
  std::vector<double> act(const EdgeLearnEnv& env) override {
    calls.push_back("act");
    return scheduled_prices(env, acted++);
  }
  void observe(const StepResult& res) override {
    calls.push_back("observe");
    observed.push_back(res);
  }
  void end_episode(const EpisodeStats& stats, bool pipelined) override {
    calls.push_back(pipelined ? "end:pipelined" : "end:sequential");
    ended_rounds.push_back(stats.rounds);
  }

  std::vector<std::string> calls;
  std::vector<StepResult> observed;
  std::vector<int> ended_rounds;
  int acted = 0;

 private:
  bool pipelinable_;
};

// The same schedule stepped by hand: every result, the abort included.
std::vector<StepResult> reference_episode(EdgeLearnEnv& env) {
  std::vector<StepResult> out;
  env.reset();
  for (int k = 0; !env.done(); ++k) {
    out.push_back(env.step(scheduled_prices(env, k)));
    if (out.back().aborted) break;
  }
  return out;
}

void expect_same_round(const StepResult& a, const StepResult& b) {
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.payment, b.payment);
  EXPECT_EQ(a.round_time, b.round_time);
  EXPECT_EQ(a.raw_exterior_reward, b.raw_exterior_reward);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.done, b.done);
}

TEST(EpisodeLoop, ObservesExecutedRoundsInOrderNeverTheAbortedOne) {
  constexpr int kEpisodes = 2;
  EdgeLearnEnv ref_env(abort_config());
  std::vector<std::vector<StepResult>> ref;
  for (int e = 0; e < kEpisodes; ++e) {
    ref.push_back(reference_episode(ref_env));
    ASSERT_TRUE(ref.back().back().aborted) << "config must overdraw";
  }

  for (bool pipeline : {false, true}) {
    for (bool pipelinable : {false, true}) {
      SCOPED_TRACE(std::string("pipeline ") + (pipeline ? "on" : "off") +
                   (pipelinable ? ", pipelinable" : ", sequential policy"));
      runtime::set_pipeline(pipeline);
      EdgeLearnEnv env(abort_config());
      ScriptedPolicy policy(pipelinable);
      const std::vector<EpisodeStats> stats =
          run_episodes(env, policy, kEpisodes);
      runtime::set_pipeline(false);

      const bool pipelined = pipeline && pipelinable;
      // Per episode: begin, act/observe per executed round (the pipeline
      // posts round k+1 before observing round k), the aborted act, end.
      std::vector<std::string> want;
      std::vector<const StepResult*> want_observed;
      std::vector<int> want_rounds;
      for (const auto& episode : ref) {
        const std::size_t executed = episode.size() - 1;
        want.push_back("begin");
        for (std::size_t k = 0; k <= executed; ++k) {
          want.push_back("act");
          if (k > 0 && pipelined) want.push_back("observe");
          if (k < executed && !pipelined) want.push_back("observe");
        }
        want.push_back(pipelined ? "end:pipelined" : "end:sequential");
        for (std::size_t k = 0; k < executed; ++k)
          want_observed.push_back(&episode[k]);
        want_rounds.push_back(static_cast<int>(executed));
      }
      EXPECT_EQ(policy.calls, want);

      ASSERT_EQ(policy.observed.size(), want_observed.size());
      for (std::size_t i = 0; i < want_observed.size(); ++i) {
        EXPECT_FALSE(policy.observed[i].aborted);
        expect_same_round(policy.observed[i], *want_observed[i]);
      }
      ASSERT_EQ(stats.size(), want_rounds.size());
      for (std::size_t e = 0; e < stats.size(); ++e)
        EXPECT_EQ(stats[e].rounds, want_rounds[e]);
      EXPECT_EQ(policy.ended_rounds, want_rounds);
    }
  }
}

TEST(EpisodeLoop, RoundCallbackSeesEachObservedRound) {
  runtime::set_pipeline(true);
  EdgeLearnEnv env(abort_config());
  ScriptedPolicy policy(/*pipelinable=*/true);
  std::vector<StepResult> seen;
  play_episode(env, policy,
               [&seen](const StepResult& r) { seen.push_back(r); });
  runtime::set_pipeline(false);
  ASSERT_EQ(seen.size(), policy.observed.size());
  for (std::size_t i = 0; i < seen.size(); ++i)
    expect_same_round(seen[i], policy.observed[i]);
}

}  // namespace
}  // namespace chiron::core
