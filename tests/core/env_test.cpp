#include "core/env.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "sysmodel/economics.h"

namespace chiron::core {
namespace {

EnvConfig small_config() {
  EnvConfig c;
  c.num_nodes = 4;
  c.budget = 50.0;
  c.backend = BackendKind::kSurrogate;
  c.seed = 42;
  return c;
}

std::vector<double> saturation_prices(const EdgeLearnEnv& env) {
  std::vector<double> p;
  for (int i = 0; i < env.num_nodes(); ++i)
    p.push_back(env.per_node_price_cap(i));
  return p;
}

TEST(EdgeLearnEnv, StateDimFormula) {
  EnvConfig c = small_config();
  c.history = 3;
  EdgeLearnEnv env(c);
  EXPECT_EQ(env.exterior_state_dim(), 3 * 3 * 4 + 2);
  EXPECT_EQ(static_cast<std::int64_t>(env.reset().size()),
            env.exterior_state_dim());
}

TEST(EdgeLearnEnv, InitialStateIsZeroHistoryFullBudget) {
  EdgeLearnEnv env(small_config());
  std::vector<float> s = env.reset();
  // All history slots zero.
  for (std::size_t i = 0; i + 2 < s.size(); ++i) EXPECT_EQ(s[i], 0.f);
  EXPECT_FLOAT_EQ(s[s.size() - 2], 1.f);  // budget fraction
  EXPECT_FLOAT_EQ(s[s.size() - 1], 0.f);  // round fraction
}

TEST(EdgeLearnEnv, StepWithoutResetThrows) {
  EdgeLearnEnv env(small_config());
  EXPECT_THROW(env.step({1, 1, 1, 1}), chiron::InvariantError);
}

TEST(EdgeLearnEnv, WrongPriceCountThrows) {
  EdgeLearnEnv env(small_config());
  env.reset();
  EXPECT_THROW(env.step({1.0}), chiron::InvariantError);
}

TEST(EdgeLearnEnv, PriceCapIsSumOfSaturationPrices) {
  EdgeLearnEnv env(small_config());
  double sum = 0;
  for (int i = 0; i < env.num_nodes(); ++i) sum += env.per_node_price_cap(i);
  EXPECT_NEAR(env.price_cap(), sum, sum * 1e-12);
}

TEST(EdgeLearnEnv, BudgetDecreasesByPayment) {
  EdgeLearnEnv env(small_config());
  env.reset();
  auto prices = saturation_prices(env);
  for (auto& p : prices) p *= 0.3;
  StepResult r = env.step(prices);
  ASSERT_FALSE(r.aborted);
  EXPECT_NEAR(env.budget_remaining(), env.budget_initial() - r.payment,
              1e-9);
  EXPECT_GT(r.payment, 0.0);
}

TEST(EdgeLearnEnv, OverdraftAbortsAndDiscardsRound) {
  EnvConfig c = small_config();
  c.budget = 1e-3;  // far below one full-price round
  EdgeLearnEnv env(c);
  env.reset();
  const double acc0 = env.accuracy();
  StepResult r = env.step(saturation_prices(env));
  EXPECT_TRUE(r.aborted);
  EXPECT_TRUE(r.done);
  EXPECT_TRUE(env.done());
  EXPECT_EQ(env.round(), 0);                       // round not recorded
  EXPECT_DOUBLE_EQ(env.budget_remaining(), 1e-3);  // nothing paid
  EXPECT_DOUBLE_EQ(env.accuracy(), acc0);          // no training happened
}

// Pins the full aborted-round contract of env.h: accuracy frozen, every
// other field at its zero default. The abort happens after the market ran,
// so a leaky implementation would carry the market outcome (payment,
// participants, per-node decisions) into the result.
void expect_aborted_contract(const StepResult& r, double frozen_accuracy) {
  EXPECT_TRUE(r.done);
  EXPECT_TRUE(r.aborted);
  EXPECT_DOUBLE_EQ(r.accuracy, frozen_accuracy);
  EXPECT_EQ(r.reward_exterior, 0.0);
  EXPECT_EQ(r.reward_inner, 0.0);
  EXPECT_EQ(r.raw_exterior_reward, 0.0);
  EXPECT_EQ(r.round_time, 0.0);
  EXPECT_EQ(r.accuracy_gain, 0.0);
  EXPECT_EQ(r.payment, 0.0);
  EXPECT_EQ(r.idle_time, 0.0);
  EXPECT_EQ(r.time_efficiency, 0.0);
  EXPECT_EQ(r.participants, 0);
  EXPECT_EQ(r.offline, 0);
  EXPECT_EQ(r.delivered, 0);
  EXPECT_EQ(r.crashed, 0);
  EXPECT_EQ(r.late, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_TRUE(r.outcome.nodes.empty());
  EXPECT_EQ(r.outcome.participants, 0);
  EXPECT_EQ(r.outcome.total_payment, 0.0);
  EXPECT_EQ(r.outcome.round_time, 0.0);
}

TEST(EdgeLearnEnv, AbortedRoundZeroesEveryEconomicsField) {
  EnvConfig c = small_config();
  c.budget = 1e-3;
  // Availability draws would legitimately raise `offline`; the contract
  // says even that must not leak out of a discarded round.
  c.node_availability = 0.5;
  EdgeLearnEnv env(c);
  env.reset();
  const double acc0 = env.accuracy();
  StepResult r = env.step(saturation_prices(env));
  expect_aborted_contract(r, acc0);
}

TEST(EdgeLearnEnv, AbortedRoundZeroesEveryEconomicsFieldFaultyPath) {
  EnvConfig c = small_config();
  c.budget = 1e-3;
  c.faults.crash_prob = 0.5;  // forces the fault-tolerant pipeline
  EdgeLearnEnv env(c);
  env.reset();
  const double acc0 = env.accuracy();
  StepResult r = env.step(saturation_prices(env));
  expect_aborted_contract(r, acc0);
  EXPECT_EQ(env.round(), 0);
  EXPECT_DOUBLE_EQ(env.budget_remaining(), 1e-3);
}

TEST(EdgeLearnEnv, EpisodeEndsWhenBudgetExhausted) {
  EdgeLearnEnv env(small_config());
  env.reset();
  int rounds = 0;
  while (!env.done()) {
    StepResult r = env.step(saturation_prices(env));
    if (r.aborted) break;
    ++rounds;
    ASSERT_LT(rounds, 1000);
  }
  EXPECT_TRUE(env.done());
  EXPECT_GT(rounds, 0);
}

TEST(EdgeLearnEnv, CheaperPricesBuyMoreRounds) {
  auto rounds_at = [](double scale) {
    EnvConfig c = small_config();
    EdgeLearnEnv env(c);
    env.reset();
    int rounds = 0;
    while (!env.done()) {
      std::vector<double> prices;
      for (int i = 0; i < env.num_nodes(); ++i)
        prices.push_back(scale * env.per_node_price_cap(i));
      if (env.step(prices).aborted) break;
      ++rounds;
    }
    return rounds;
  };
  EXPECT_GT(rounds_at(0.3), rounds_at(1.0));
}

TEST(EdgeLearnEnv, AccuracyImprovesOverEpisode) {
  EdgeLearnEnv env(small_config());
  env.reset();
  const double a0 = env.accuracy();
  while (!env.done()) {
    auto prices = saturation_prices(env);
    for (auto& p : prices) p *= 0.5;
    if (env.step(prices).aborted) break;
  }
  EXPECT_GT(env.accuracy(), a0 + 0.1);
}

TEST(EdgeLearnEnv, ExteriorRewardMatchesEqn14) {
  EdgeLearnEnv env(small_config());
  env.reset();
  auto prices = saturation_prices(env);
  for (auto& p : prices) p *= 0.4;
  StepResult r = env.step(prices);
  ASSERT_GT(r.participants, 0);
  const double expect =
      env.config().lambda_pref * r.accuracy_gain - r.round_time;
  EXPECT_NEAR(r.raw_exterior_reward, expect, 1e-9);
  EXPECT_NEAR(r.reward_exterior, expect / env.config().time_norm, 1e-9);
}

TEST(EdgeLearnEnv, LambdaOnTimeAblation) {
  EnvConfig c = small_config();
  c.lambda_on_time = true;
  EdgeLearnEnv env(c);
  env.reset();
  auto prices = saturation_prices(env);
  for (auto& p : prices) p *= 0.4;
  StepResult r = env.step(prices);
  ASSERT_GT(r.participants, 0);
  const double expect = c.lambda_pref * (r.accuracy_gain - r.round_time);
  EXPECT_NEAR(r.raw_exterior_reward, expect, std::fabs(expect) * 1e-9);
}

TEST(EdgeLearnEnv, InnerRewardIsNegativeIdle) {
  EdgeLearnEnv env(small_config());
  env.reset();
  auto prices = saturation_prices(env);
  for (auto& p : prices) p *= 0.6;
  StepResult r = env.step(prices);
  ASSERT_GT(r.participants, 0);
  EXPECT_NEAR(r.reward_inner,
              -r.idle_time / (4 * env.config().time_norm), 1e-9);
  EXPECT_LE(r.reward_inner, 0.0);
}

TEST(EdgeLearnEnv, EmptyRoundPenalized) {
  EdgeLearnEnv env(small_config());
  env.reset();
  StepResult r = env.step({0, 0, 0, 0});
  EXPECT_EQ(r.participants, 0);
  EXPECT_LT(r.reward_exterior, 0.0);
  EXPECT_DOUBLE_EQ(env.budget_remaining(), env.budget_initial());
}

TEST(EdgeLearnEnv, HistoryAppearsInState) {
  EdgeLearnEnv env(small_config());
  env.reset();
  auto prices = saturation_prices(env);
  for (auto& p : prices) p *= 0.5;
  env.step(prices);
  std::vector<float> s = env.exterior_state();
  // Most recent round occupies the last history block; it must be nonzero.
  const std::size_t block = static_cast<std::size_t>(3 * env.num_nodes());
  float sum = 0;
  for (std::size_t i = block * (env.config().history - 1);
       i < block * env.config().history; ++i)
    sum += std::fabs(s[i]);
  EXPECT_GT(sum, 0.f);
  // Oldest block still zero (only one round played).
  float old_sum = 0;
  for (std::size_t i = 0; i < block; ++i) old_sum += std::fabs(s[i]);
  EXPECT_EQ(old_sum, 0.f);
}

TEST(EdgeLearnEnv, RoundFractionAdvances) {
  EdgeLearnEnv env(small_config());
  env.reset();
  auto prices = saturation_prices(env);
  for (auto& p : prices) p *= 0.4;
  env.step(prices);
  std::vector<float> s = env.exterior_state();
  EXPECT_GT(s.back(), 0.f);
  EXPECT_LT(s[s.size() - 2], 1.f);  // some budget spent
}

TEST(EdgeLearnEnv, DeterministicUnderSeed) {
  EnvConfig c = small_config();
  EdgeLearnEnv e1(c), e2(c);
  e1.reset();
  e2.reset();
  auto prices = saturation_prices(e1);
  for (auto& p : prices) p *= 0.5;
  StepResult r1 = e1.step(prices);
  StepResult r2 = e2.step(prices);
  EXPECT_DOUBLE_EQ(r1.accuracy, r2.accuracy);
  EXPECT_DOUBLE_EQ(r1.round_time, r2.round_time);
  EXPECT_DOUBLE_EQ(r1.payment, r2.payment);
}

TEST(EdgeLearnEnv, DevicesPersistAcrossEpisodes) {
  EdgeLearnEnv env(small_config());
  env.reset();
  const double cap1 = env.price_cap();
  const double comm0 = env.devices()[0].comm_time;
  env.reset();
  EXPECT_DOUBLE_EQ(env.price_cap(), cap1);
  EXPECT_DOUBLE_EQ(env.devices()[0].comm_time, comm0);
}

TEST(EdgeLearnEnv, MaxRoundsCapsStalling) {
  EnvConfig c = small_config();
  c.max_rounds = 5;
  EdgeLearnEnv env(c);
  env.reset();
  int rounds = 0;
  while (!env.done()) {
    env.step({0, 0, 0, 0});  // nobody participates, nothing spent
    ++rounds;
    ASSERT_LE(rounds, 5);
  }
  EXPECT_EQ(rounds, 5);
}

TEST(EdgeLearnEnv, EqualTimeOracleEqualizesTimes) {
  EnvConfig c = small_config();
  EdgeLearnEnv env(c);
  env.reset();
  const double total = 0.5 * env.price_cap();
  auto pr = env.equal_time_proportions(total);
  double sum = 0;
  for (double v : pr) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  std::vector<double> prices;
  for (double v : pr) prices.push_back(total * v);
  StepResult r = env.step(prices);
  ASSERT_EQ(r.participants, env.num_nodes());
  // Time efficiency should approach 1 (Lemma 1 target); participation
  // floors can keep a node faster than the common finish time, so allow
  // modest slack.
  EXPECT_GT(r.time_efficiency, 0.85);
}

TEST(EdgeLearnEnv, OracleBeatsUniformSplitOnIdleTime) {
  EnvConfig c = small_config();
  EdgeLearnEnv env(c);
  env.reset();
  const double total = 0.5 * env.price_cap();
  std::vector<double> uniform(
      4, total / 4.0);
  StepResult r_uniform = env.step(uniform);

  EdgeLearnEnv env2(c);
  env2.reset();
  auto pr = env2.equal_time_proportions(total);
  std::vector<double> prices;
  for (double v : pr) prices.push_back(total * v);
  StepResult r_oracle = env2.step(prices);

  ASSERT_GT(r_uniform.participants, 0);
  ASSERT_GT(r_oracle.participants, 0);
  EXPECT_LE(r_oracle.idle_time, r_uniform.idle_time + 1e-9);
}

TEST(EdgeLearnEnv, RealBlobsBackendEndToEnd) {
  EnvConfig c = small_config();
  c.backend = BackendKind::kRealBlobs;
  c.samples_per_node = 30;
  c.test_samples = 60;
  c.local.epochs = 2;
  c.local.batch_size = 10;
  c.local.lr = 0.05;
  c.budget = 20.0;
  EdgeLearnEnv env(c);
  env.reset();
  const double a0 = env.accuracy();
  int rounds = 0;
  while (!env.done() && rounds < 10) {
    std::vector<double> prices;
    for (int i = 0; i < env.num_nodes(); ++i)
      prices.push_back(0.5 * env.per_node_price_cap(i));
    if (env.step(prices).aborted) break;
    ++rounds;
  }
  EXPECT_GT(rounds, 0);
  EXPECT_GT(env.accuracy(), a0);
}

// Real federated training on blobs, small enough for a few rounds.
EnvConfig blobs_config() {
  EnvConfig c = small_config();
  c.backend = BackendKind::kRealBlobs;
  c.samples_per_node = 30;
  c.test_samples = 60;
  c.local.epochs = 2;
  c.local.batch_size = 10;
  c.local.lr = 0.05;
  c.budget = 100.0;
  return c;
}

std::vector<double> half_cap_prices(const EdgeLearnEnv& env) {
  std::vector<double> p;
  for (int i = 0; i < env.num_nodes(); ++i)
    p.push_back(0.5 * env.per_node_price_cap(i));
  return p;
}

// Bitwise equality of every StepResult field, per-node outcome included.
void expect_same_result(const StepResult& a, const StepResult& b) {
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.reward_exterior, b.reward_exterior);
  EXPECT_EQ(a.reward_inner, b.reward_inner);
  EXPECT_EQ(a.raw_exterior_reward, b.raw_exterior_reward);
  EXPECT_EQ(a.round_time, b.round_time);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.accuracy_gain, b.accuracy_gain);
  EXPECT_EQ(a.payment, b.payment);
  EXPECT_EQ(a.idle_time, b.idle_time);
  EXPECT_EQ(a.time_efficiency, b.time_efficiency);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.offline, b.offline);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.late, b.late);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.lightweight, b.lightweight);
  EXPECT_EQ(a.screened, b.screened);
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_EQ(a.departed, b.departed);
  EXPECT_EQ(a.rejoined, b.rejoined);
  EXPECT_EQ(a.freeriding, b.freeriding);
  EXPECT_EQ(a.misreporting, b.misreporting);
  EXPECT_EQ(a.clawed_back, b.clawed_back);
  EXPECT_EQ(a.forfeited_total, b.forfeited_total);
  EXPECT_EQ(a.outcome.participants, b.outcome.participants);
  EXPECT_EQ(a.outcome.round_time, b.outcome.round_time);
  EXPECT_EQ(a.outcome.total_payment, b.outcome.total_payment);
  EXPECT_EQ(a.outcome.total_energy, b.outcome.total_energy);
  EXPECT_EQ(a.outcome.idle_time, b.outcome.idle_time);
  EXPECT_EQ(a.outcome.time_efficiency, b.outcome.time_efficiency);
  ASSERT_EQ(a.outcome.nodes.size(), b.outcome.nodes.size());
  for (std::size_t i = 0; i < a.outcome.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const sysmodel::NodeDecision& x = a.outcome.nodes[i];
    const sysmodel::NodeDecision& y = b.outcome.nodes[i];
    EXPECT_EQ(x.participates, y.participates);
    EXPECT_EQ(x.price, y.price);
    EXPECT_EQ(x.zeta, y.zeta);
    EXPECT_EQ(x.compute_time, y.compute_time);
    EXPECT_EQ(x.comm_time, y.comm_time);
    EXPECT_EQ(x.total_time, y.total_time);
    EXPECT_EQ(x.compute_energy, y.compute_energy);
    EXPECT_EQ(x.comm_energy, y.comm_energy);
    EXPECT_EQ(x.utility, y.utility);
    EXPECT_EQ(x.payment, y.payment);
  }
}

// The StepResult of the same config's first round with a deadline no
// node can miss: must match the deadline-free round exactly.
StepResult first_round_with_idle_deadline(EnvConfig c) {
  c.round_deadline = 1e9;
  EdgeLearnEnv env(c);
  env.reset();
  return env.step(half_cap_prices(env));
}

TEST(EdgeLearnEnv, RejectedUploadsAreUnpaidWithoutFaults) {
  // Pay-on-delivery holds in every round, not only under faults: with a
  // norm bound no real upload meets, the server rejects every upload, so
  // nobody is paid and the whole escrow returns to the budget.
  EnvConfig c = blobs_config();
  c.upload_norm_bound = 1e-6;
  EdgeLearnEnv env(c);
  env.reset();
  const double budget0 = env.budget_remaining();
  const StepResult r = env.step(half_cap_prices(env));
  ASSERT_FALSE(r.aborted);
  ASSERT_GT(r.participants, 0);
  EXPECT_EQ(r.payment, 0.0);
  EXPECT_EQ(r.rejected, r.participants);
  EXPECT_EQ(r.delivered, 0);
  EXPECT_EQ(env.budget_remaining(), budget0);
  for (const sysmodel::NodeDecision& nd : r.outcome.nodes)
    EXPECT_EQ(nd.payment, 0.0);
  expect_same_result(r, first_round_with_idle_deadline(c));
}

TEST(EdgeLearnEnv, ReportsLightweightDeliveries) {
  // With a replica budget of 2 out of 6 nodes, the other participants
  // deliver as stats-only nodes; the result carries the backend's count.
  EnvConfig c = blobs_config();
  c.num_nodes = 6;
  c.max_replicas = 2;
  EdgeLearnEnv env(c);
  env.reset();
  const StepResult r = env.step(half_cap_prices(env));
  ASSERT_FALSE(r.aborted);
  ASSERT_EQ(r.participants, 6);
  ASSERT_EQ(r.delivered, 6);
  EXPECT_EQ(r.lightweight, 4);
  expect_same_result(r, first_round_with_idle_deadline(c));
}

// --- Outcome snapshots, batch reuse and the history ring ------------------

// A market under crashes, stragglers and a deadline, so settle realizes
// rounds (stretched times, zeroed payments) instead of moving the
// promised market through.
EnvConfig faulty_config(int nodes) {
  EnvConfig c;
  c.num_nodes = nodes;
  c.backend = BackendKind::kSurrogate;
  c.budget = 1e6;
  c.seed = 91;
  c.faults.crash_prob = 0.2;
  c.faults.straggler_prob = 0.3;
  c.faults.seed = 93;
  c.round_deadline = 40.0;
  return c;
}

std::vector<double> scaled_caps(const EdgeLearnEnv& env, double scale) {
  std::vector<double> p;
  for (int i = 0; i < env.num_nodes(); ++i)
    p.push_back(scale * env.per_node_price_cap(i));
  return p;
}

// A deep copy of an outcome's per-node rows.
std::vector<sysmodel::NodeDecision> node_rows(const StepResult& r) {
  return {r.outcome.nodes.begin(), r.outcome.nodes.end()};
}

void expect_rows(const StepResult& r,
                 const std::vector<sysmodel::NodeDecision>& want) {
  ASSERT_EQ(r.outcome.nodes.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const sysmodel::NodeDecision x = r.outcome.nodes[i];
    EXPECT_EQ(x.participates, want[i].participates);
    EXPECT_EQ(x.price, want[i].price);
    EXPECT_EQ(x.zeta, want[i].zeta);
    EXPECT_EQ(x.compute_time, want[i].compute_time);
    EXPECT_EQ(x.comm_time, want[i].comm_time);
    EXPECT_EQ(x.total_time, want[i].total_time);
    EXPECT_EQ(x.compute_energy, want[i].compute_energy);
    EXPECT_EQ(x.comm_energy, want[i].comm_energy);
    EXPECT_EQ(x.utility, want[i].utility);
    EXPECT_EQ(x.payment, want[i].payment);
  }
}

TEST(EdgeLearnEnv, HeldResultKeepsItsNodesAcrossLaterSteps) {
  EdgeLearnEnv env(faulty_config(48));
  env.reset();
  const StepResult held = env.step(scaled_caps(env, 0.4));
  ASSERT_FALSE(held.aborted);
  const std::vector<sysmodel::NodeDecision> rows = node_rows(held);
  const StepResult copy = held;  // shares the batch
  for (double scale : {0.7, 0.2, 0.9}) {
    const StepResult later = env.step(scaled_caps(env, scale));
    ASSERT_FALSE(later.aborted);
    EXPECT_NE(later.outcome.nodes.columns().price.data(),
              held.outcome.nodes.columns().price.data());
  }
  expect_rows(held, rows);
  expect_rows(copy, rows);
}

TEST(EdgeLearnEnv, HeldPipelinedResultsKeepTheirNodes) {
  // Every round's result stays readable while later rounds commit into
  // other batches, whether it came back from step_pipelined or drain().
  EdgeLearnEnv env(faulty_config(48));
  env.reset();
  std::vector<StepResult> held;
  std::vector<std::vector<sysmodel::NodeDecision>> rows;
  const auto keep = [&](const StepResult& r) {
    held.push_back(r);
    rows.push_back(node_rows(r));
  };
  for (double scale : {0.4, 0.7, 0.2, 0.9, 0.5}) {
    const EdgeLearnEnv::PipelinedStep out =
        env.step_pipelined(scaled_caps(env, scale));
    ASSERT_FALSE(out.aborted);
    if (out.prev_valid) keep(out.prev);
  }
  keep(env.drain());
  ASSERT_EQ(held.size(), 5u);
  for (std::size_t k = 0; k < held.size(); ++k) {
    SCOPED_TRACE("round " + std::to_string(k + 1));
    expect_rows(held[k], rows[k]);
  }
}

TEST(EdgeLearnEnv, DroppedResultsReuseTheOutcomeColumns) {
  // Once no result holds a round's batch, the next round is played in it:
  // the steady state allocates no N-sized outcome storage.
  EdgeLearnEnv env(faulty_config(64));
  env.reset();
  const double* first = nullptr;
  for (int k = 0; k < 4; ++k) {
    const StepResult r = env.step(scaled_caps(env, 0.5));
    ASSERT_FALSE(r.aborted);
    const double* price = r.outcome.nodes.columns().price.data();
    if (first == nullptr) first = price;
    EXPECT_EQ(price, first) << "round " << k + 1;
  }
  // Holding only the latest result (r = env.step(...)) alternates between
  // two batches.
  std::set<const double*> seen;
  StepResult r;
  for (int k = 0; k < 6; ++k) {
    r = env.step(scaled_caps(env, 0.5));
    ASSERT_FALSE(r.aborted);
    seen.insert(r.outcome.nodes.columns().price.data());
  }
  EXPECT_EQ(seen.size(), 2u);
}

// The exterior state rebuilt from the results of the last L rounds:
// normalized ζ, p and T per node (zero blocks before L rounds ran), then
// the budget and round fractions.
std::vector<float> state_from_results(const EdgeLearnEnv& env,
                                      const std::vector<StepResult>& last) {
  const EnvConfig& c = env.config();
  const double price_norm =
      env.price_cap() / static_cast<double>(env.num_nodes());
  std::vector<float> s(
      static_cast<std::size_t>(c.history - static_cast<int>(last.size())) *
          3 * static_cast<std::size_t>(c.num_nodes),
      0.f);
  for (const StepResult& r : last) {
    for (const sysmodel::NodeDecision& nd : r.outcome.nodes) {
      s.push_back(static_cast<float>(nd.zeta / c.population.zeta_max_hi));
      s.push_back(static_cast<float>(nd.price / price_norm));
      s.push_back(static_cast<float>(nd.total_time / c.time_norm));
    }
  }
  s.push_back(static_cast<float>(env.budget_remaining() / c.budget));
  s.push_back(static_cast<float>(static_cast<double>(env.round()) /
                                 static_cast<double>(c.max_rounds)));
  return s;
}

TEST(EdgeLearnEnv, ExteriorStateIsTheLastResultsRows) {
  EnvConfig c = faulty_config(24);
  c.history = 3;
  c.node_availability = 0.8;  // offline nodes post a zero price
  EdgeLearnEnv env(c);
  for (int episode = 0; episode < 2; ++episode) {
    std::vector<StepResult> last;
    const std::vector<float> initial = env.reset();
    EXPECT_EQ(initial, state_from_results(env, last));
    for (double scale : {0.4, 0.7, 0.2, 0.9, 0.5}) {
      const StepResult r = env.step(scaled_caps(env, scale));
      ASSERT_FALSE(r.aborted);
      last.push_back(r);
      if (static_cast<int>(last.size()) > c.history) last.erase(last.begin());
      const std::vector<float> want = state_from_results(env, last);
      const std::vector<float> got = env.exterior_state();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "episode " << episode << " round "
                                   << env.round() << " slot " << i;
    }
  }
}

// Plays faulty rounds at `nodes` and hands each realized result to
// `check`; at least one round must have lost a delivery.
template <class Check>
void play_faulty_rounds(int nodes, Check check) {
  EdgeLearnEnv env(faulty_config(nodes));
  env.reset();
  int realized = 0;
  for (double scale : {0.4, 0.8, 0.3}) {
    const StepResult r = env.step(scaled_caps(env, scale));
    ASSERT_FALSE(r.aborted);
    ASSERT_GT(r.participants, 0);
    if (r.delivered < r.participants) ++realized;
    check(env, r);
  }
  EXPECT_GT(realized, 0);
}

TEST(EdgeLearnEnv, LargeFaultyRoundsSumInThePlaneChunkOrder) {
  // N = 8193 is two plane chunks: realized rounds reduce in the same
  // chunk order as the promised market, not serially.
  play_faulty_rounds(8193, [](const EdgeLearnEnv& env, const StepResult& r) {
    const sysmodel::EconomicsPlane plane(env.devices(),
                                         env.config().local_epochs);
    const sysmodel::RoundAggregates agg =
        plane.aggregate_round(r.outcome.nodes.columns());
    EXPECT_EQ(r.participants, agg.participants);
    EXPECT_EQ(r.round_time, agg.round_time);
    EXPECT_EQ(r.payment, agg.total_payment);
    EXPECT_EQ(r.idle_time, agg.idle_time);
    EXPECT_EQ(r.time_efficiency, agg.time_efficiency);
    EXPECT_EQ(r.outcome.total_energy, agg.total_energy);
  });
}

TEST(EdgeLearnEnv, SingleChunkFaultyRoundsEqualScalarRealizeRound) {
  // Up to one chunk (N <= 8192) settle replays the scalar pay-on-delivery
  // oracle bit for bit.
  for (int nodes : {16, 8192}) {
    SCOPED_TRACE("nodes " + std::to_string(nodes));
    play_faulty_rounds(nodes, [](const EdgeLearnEnv&, const StepResult& r) {
      sysmodel::RoundOutcome realized;
      realized.nodes = node_rows(r);
      realized.participants = r.participants;
      realized.total_energy = r.outcome.total_energy;
      std::vector<double> times;
      std::vector<bool> paid;
      for (const sysmodel::NodeDecision& nd : realized.nodes) {
        times.push_back(nd.total_time);
        paid.push_back(nd.payment > 0.0);
      }
      const sysmodel::RoundOutcome want =
          sysmodel::realize_round(realized, times, paid);
      EXPECT_EQ(r.round_time, want.round_time);
      EXPECT_EQ(r.payment, want.total_payment);
      EXPECT_EQ(r.idle_time, want.idle_time);
      EXPECT_EQ(r.time_efficiency, want.time_efficiency);
      // The scalar aggregation of the realized rows agrees as well,
      // energy included.
      const sysmodel::RoundOutcome folded =
          sysmodel::aggregate_round(node_rows(r));
      EXPECT_EQ(r.participants, folded.participants);
      EXPECT_EQ(r.payment, folded.total_payment);
      EXPECT_EQ(r.idle_time, folded.idle_time);
      EXPECT_EQ(r.outcome.total_energy, folded.total_energy);
    });
  }
}

}  // namespace
}  // namespace chiron::core
