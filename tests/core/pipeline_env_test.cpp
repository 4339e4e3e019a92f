// Byte-identity and accounting contracts of the double-buffered round
// pipeline (DESIGN.md §5.14): step_pipelined() must produce exactly the
// results, round records and ledger state of step() on every step path
// (honest / faulty / adversarial, surrogate and real backends), at every
// thread count, including mid-episode overdraw aborts while a round is
// still in flight.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "baselines/greedy.h"
#include "baselines/single_drl.h"
#include "baselines/static_oracle.h"
#include "core/env.h"
#include "core/mechanism.h"
#include "obs/json.h"
#include "obs/round_log.h"
#include "runtime/pipeline.h"
#include "runtime/runtime.h"

namespace chiron::core {
namespace {

EnvConfig honest_config() {
  EnvConfig c;
  c.num_nodes = 5;
  c.budget = 60.0;
  c.backend = BackendKind::kSurrogate;
  c.seed = 33;
  c.max_rounds = 40;
  return c;
}

EnvConfig faulty_config() {
  EnvConfig c = honest_config();
  c.faults.crash_prob = 0.2;
  c.faults.straggler_prob = 0.2;
  c.faults.corrupt_prob = 0.1;
  c.faults.seed = 77;
  c.round_deadline = 80.0;
  return c;
}

EnvConfig adversarial_config() {
  EnvConfig c = honest_config();
  c.adversary.fraction = 0.4;
  c.adversary.misreport_factor = 1.8;
  c.adversary.freeride_prob = 0.3;
  c.adversary.churn_prob = 0.1;
  c.adversary.seed = 31;
  c.defense.audit_prob = 0.5;
  c.defense.audit_tolerance = 1.1;
  c.defense.reputation_alpha = 0.25;
  c.defense.seed = 13;
  return c;
}

EnvConfig blobs_config() {
  EnvConfig c;
  c.num_nodes = 4;
  c.budget = 40.0;
  c.backend = BackendKind::kRealBlobs;
  c.samples_per_node = 16;
  c.test_samples = 32;
  c.blob_dims = 8;
  c.blob_classes = 3;
  c.local.epochs = 2;
  c.local.batch_size = 8;
  c.seed = 42;
  return c;
}

// Deterministic pricing policy that varies round to round so the budget
// actually paces out and the escrow sees different promised totals.
std::vector<double> round_prices(const EdgeLearnEnv& env, int k) {
  std::vector<double> p;
  const double scale = 0.35 + 0.05 * static_cast<double>(k % 5);
  for (int i = 0; i < env.num_nodes(); ++i)
    p.push_back(env.per_node_price_cap(i) * scale);
  return p;
}

// Exact (bitwise, not approximate) equality across every StepResult field
// — the pipeline's determinism contract is byte-for-byte, so EXPECT_EQ on
// doubles is deliberate.
void expect_identical(const StepResult& a, const StepResult& b, int k) {
  SCOPED_TRACE("round index " + std::to_string(k));
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
  EXPECT_EQ(a.screened, b.screened);
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_EQ(a.freeriding, b.freeriding);
  EXPECT_EQ(a.misreporting, b.misreporting);
  EXPECT_EQ(a.clawed_back, b.clawed_back);
  EXPECT_EQ(a.forfeited_total, b.forfeited_total);
  ASSERT_EQ(a.outcome.nodes.size(), b.outcome.nodes.size());
  for (std::size_t i = 0; i < a.outcome.nodes.size(); ++i) {
    EXPECT_EQ(a.outcome.nodes[i].participates, b.outcome.nodes[i].participates);
    EXPECT_EQ(a.outcome.nodes[i].price, b.outcome.nodes[i].price);
    EXPECT_EQ(a.outcome.nodes[i].zeta, b.outcome.nodes[i].zeta);
    EXPECT_EQ(a.outcome.nodes[i].total_time, b.outcome.nodes[i].total_time);
    EXPECT_EQ(a.outcome.nodes[i].payment, b.outcome.nodes[i].payment);
  }
}

struct EpisodeRun {
  std::vector<StepResult> results;
  std::string log;
  double budget_remaining = 0.0;
  double forfeited_total = 0.0;
};

EpisodeRun run_sequential(const EnvConfig& c, int episodes) {
  EpisodeRun out;
  std::ostringstream os;
  obs::JsonlRoundSink sink(os);
  EdgeLearnEnv env(c);
  env.set_round_sink(&sink);
  for (int e = 0; e < episodes; ++e) {
    env.reset();
    int k = 0;
    while (!env.done()) out.results.push_back(env.step(round_prices(env, k++)));
  }
  out.log = os.str();
  out.budget_remaining = env.budget_remaining();
  out.forfeited_total = env.forfeited_total();
  return out;
}

EpisodeRun run_pipelined(const EnvConfig& c, int episodes) {
  EpisodeRun out;
  std::ostringstream os;
  obs::JsonlRoundSink sink(os);
  EdgeLearnEnv env(c);
  env.set_round_sink(&sink);
  for (int e = 0; e < episodes; ++e) {
    env.reset();
    int k = 0;
    while (!env.done()) {
      EdgeLearnEnv::PipelinedStep s = env.step_pipelined(round_prices(env, k++));
      if (s.prev_valid) out.results.push_back(s.prev);
      if (s.aborted) out.results.push_back(s.abort);
    }
    if (env.has_pending()) out.results.push_back(env.drain());
  }
  out.log = os.str();
  out.budget_remaining = env.budget_remaining();
  out.forfeited_total = env.forfeited_total();
  return out;
}

void expect_runs_identical(const EnvConfig& c, int episodes) {
  const EpisodeRun seq = run_sequential(c, episodes);
  const EpisodeRun pipe = run_pipelined(c, episodes);
  ASSERT_EQ(seq.results.size(), pipe.results.size());
  for (std::size_t i = 0; i < seq.results.size(); ++i)
    expect_identical(seq.results[i], pipe.results[i], static_cast<int>(i));
  EXPECT_EQ(seq.log, pipe.log) << "round records must be byte-identical";
  EXPECT_EQ(seq.budget_remaining, pipe.budget_remaining);
  EXPECT_EQ(seq.forfeited_total, pipe.forfeited_total);
}

TEST(PipelineEnv, HonestPathByteIdenticalAtEveryThreadCount) {
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    runtime::set_threads(threads);
    expect_runs_identical(honest_config(), 2);
  }
  runtime::set_threads(0);
}

TEST(PipelineEnv, FaultyPathByteIdenticalAtEveryThreadCount) {
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    runtime::set_threads(threads);
    expect_runs_identical(faulty_config(), 2);
  }
  runtime::set_threads(0);
}

TEST(PipelineEnv, AdversarialPathByteIdenticalAtEveryThreadCount) {
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    runtime::set_threads(threads);
    expect_runs_identical(adversarial_config(), 2);
  }
  runtime::set_threads(0);
}

TEST(PipelineEnv, RealTrainingBackendByteIdenticalAndOverlapsEval) {
  // The real backend is the one whose evaluation actually runs on the
  // stage thread (deferred eval); identity here exercises the frozen
  // post-aggregate snapshot end to end.
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    runtime::set_threads(threads);
    expect_runs_identical(blobs_config(), 2);
  }
  runtime::set_threads(0);
}

TEST(PipelineEnv, OverdrawAbortWhileRoundInFlightMatchesSequential) {
  // A budget sized for a handful of rounds forces a mid-episode overdraw
  // abort. In pipelined mode the abort lands while round k-1 is still in
  // flight: its result must be finalized (and logged) BEFORE the aborted
  // record, exactly as the sequential schedule would order them.
  EnvConfig c = honest_config();
  c.budget = 18.0;
  const EpisodeRun seq = run_sequential(c, 2);
  const EpisodeRun pipe = run_pipelined(c, 2);
  ASSERT_EQ(seq.results.size(), pipe.results.size());
  bool saw_abort = false;
  for (std::size_t i = 0; i < seq.results.size(); ++i) {
    expect_identical(seq.results[i], pipe.results[i], static_cast<int>(i));
    if (seq.results[i].aborted) {
      saw_abort = true;
      EXPECT_EQ(seq.results[i].payment, 0.0);
      EXPECT_EQ(seq.results[i].participants, 0);
      EXPECT_TRUE(seq.results[i].done);
    }
  }
  EXPECT_TRUE(saw_abort) << "config must trigger a mid-episode overdraw";
  EXPECT_EQ(seq.log, pipe.log);
}

TEST(PipelineEnv, AbortCallStillFinalizesTheInFlightRound) {
  EnvConfig c = honest_config();
  c.budget = 18.0;
  EdgeLearnEnv env(c);
  env.reset();
  int k = 0;
  while (!env.done()) {
    EdgeLearnEnv::PipelinedStep s = env.step_pipelined(round_prices(env, k));
    if (s.aborted) {
      // Round k-1 was in flight when round k's commit overdrew: the same
      // call must deliver both, previous round first.
      EXPECT_TRUE(s.prev_valid) << "in-flight round must be finalized";
      EXPECT_FALSE(s.prev.aborted);
      EXPECT_TRUE(s.abort.aborted);
      EXPECT_FALSE(env.has_pending());
      break;
    }
    ++k;
  }
  EXPECT_TRUE(env.done());
}

TEST(PipelineEnv, EscrowConservationSweepUnderPipelining) {
  // Escrow discipline (DESIGN.md §5.11) on the pipelined path: at every
  // observable point, realized spend + outstanding escrow + forfeited
  // clawbacks never exceed the budget, and the spendable ledger plus the
  // two side ledgers reconcile exactly against the initial budget.
  for (double rate : {0.0, 0.3}) {
    for (std::uint64_t seed : {4ull, 9ull}) {
      EnvConfig c = adversarial_config();
      c.budget = 45.0;
      c.seed = seed;
      c.adversary.fraction = rate > 0.0 ? rate : 0.0;
      c.adversary.seed = seed + 200;
      c.defense.seed = seed + 300;
      EdgeLearnEnv env(c);
      env.reset();
      const double budget0 = env.budget_remaining();
      double spent = 0.0;
      int k = 0;
      // When round k-1's result arrives, round k has already settled, so
      // the live budget is one round ahead of `spent` — the per-round
      // invariants come from the result's own captured ledger values; the
      // live ledgers reconcile after the episode drains.
      const auto check_ledgers = [&](const StepResult& r) {
        if (r.aborted) return;
        spent += r.payment;
        EXPECT_LE(spent + r.forfeited_total, c.budget + 1e-9);
        EXPECT_GE(r.forfeited_total, 0.0);
        EXPECT_GE(env.budget_remaining(), -1e-9);
        EXPECT_EQ(env.escrow_outstanding(), 0.0)
            << "escrow settles before the call returns";
      };
      while (!env.done()) {
        EdgeLearnEnv::PipelinedStep s = env.step_pipelined(round_prices(env, k++));
        if (s.prev_valid) check_ledgers(s.prev);
        if (s.aborted) break;
      }
      if (env.has_pending()) check_ledgers(env.drain());
      EXPECT_NEAR(env.budget_remaining() + spent + env.forfeited_total(),
                  budget0, 1e-9)
          << "rate " << rate << " seed " << seed;
    }
  }
}

TEST(PipelineEnv, ResetDrainsAnInFlightRound) {
  EnvConfig c = blobs_config();
  EdgeLearnEnv env(c);
  env.reset();
  (void)env.step_pipelined(round_prices(env, 0));
  EXPECT_TRUE(env.has_pending());
  env.reset();  // must join + finalize (and log) the in-flight round
  EXPECT_FALSE(env.has_pending());
  EXPECT_EQ(env.budget_remaining(), c.budget);
}

TEST(PipelineEnv, EffectivePriceTotalLogsScreenedPricesAsZero) {
  // p_total regression (the satellite bugfix): the logged total is the
  // sum of EFFECTIVE prices — a reserve-screened node contributes zero —
  // while the raw posted sum survives as p_posted.
  EnvConfig c = honest_config();
  c.adversary.fraction = 0.2;  // activates the defense pipeline
  c.adversary.misreport_factor = 1.0;
  c.adversary.seed = 3;
  c.defense.reserve_price = 1e-12;  // screens every reported floor
  c.defense.seed = 19;
  std::ostringstream os;
  obs::JsonlRoundSink sink(os);
  EdgeLearnEnv env(c);
  env.set_round_sink(&sink);
  env.reset();
  std::vector<double> prices = round_prices(env, 0);
  double posted = 0.0;
  for (double p : prices) posted += p;
  StepResult r = env.step(prices);
  EXPECT_EQ(r.screened, env.num_nodes());
  EXPECT_EQ(r.participants, 0);
  const std::string log = os.str();
  EXPECT_NE(log.find("\"p_total\":0,"), std::string::npos) << log;
  std::ostringstream want;
  want << "\"p_posted\":" << obs::json_number(posted);
  EXPECT_NE(log.find(want.str()), std::string::npos)
      << "expected " << want.str() << " in\n" << log;
}

// Mechanism-level identity: play_episode pipelines Chiron (which
// additionally defers the batch PPO update to the stage thread) and the
// static oracle; Greedy and DRL-based stay sequential. Training and
// evaluation must be byte-identical with the pipeline on or off, at any
// thread count, for every mechanism.
struct MechRun {
  std::vector<EpisodeStats> train;
  EpisodeStats eval;
};

struct MechCase {
  const char* name;
  MechRun (*run)(EdgeLearnEnv& env);
};

const MechCase kMechanisms[] = {
    {"chiron",
     [](EdgeLearnEnv& env) {
       ChironConfig cc;
       cc.episodes = 24;
       cc.hidden = 32;
       cc.update_epochs = 4;
       cc.lr_decay_every = 10;  // exercise the inline-update decay episodes
       cc.seed = 5;
       HierarchicalMechanism mech(env, cc);
       MechRun out;
       out.train = mech.train();
       out.eval = mech.evaluate(3);
       return out;
     }},
    {"drl_based",
     [](EdgeLearnEnv& env) {
       baselines::SingleDrlConfig dc;
       dc.hidden = 32;
       dc.update_epochs = 4;
       dc.lr_decay_every = 10;
       baselines::SingleAgentDrlMechanism mech(env, dc);
       MechRun out;
       out.train = mech.train(24);
       out.eval = mech.evaluate(3);
       return out;
     }},
    {"greedy",
     [](EdgeLearnEnv& env) {
       baselines::GreedyConfig gc;
       gc.seed_actions = 10;
       baselines::GreedyMechanism mech(env, gc);
       MechRun out;
       out.train = mech.train(12);
       out.eval = mech.evaluate(3);
       return out;
     }},
    {"static_oracle",
     [](EdgeLearnEnv& env) {
       baselines::StaticOracleConfig oc;
       oc.candidates = 6;
       baselines::StaticOracleMechanism mech(env, oc);
       MechRun out;
       out.train = {mech.search()};
       out.eval = mech.evaluate(3);
       return out;
     }},
};

MechRun run_mechanism(const MechCase& mech, bool pipelined, int threads) {
  runtime::set_pipeline(pipelined);
  runtime::set_threads(threads);
  EnvConfig ec;
  ec.num_nodes = 4;
  ec.budget = 40.0;
  ec.backend = BackendKind::kSurrogate;
  ec.seed = 21;
  ec.max_rounds = 60;
  EdgeLearnEnv env(ec);
  MechRun out = mech.run(env);
  runtime::set_pipeline(false);
  runtime::set_threads(0);
  return out;
}

void expect_stats_identical(const EpisodeStats& a, const EpisodeStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.exterior_reward_sum, b.exterior_reward_sum);
  EXPECT_EQ(a.raw_reward_sum, b.raw_reward_sum);
  EXPECT_EQ(a.inner_reward_sum, b.inner_reward_sum);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.spent, b.spent);
  EXPECT_EQ(a.mean_time_efficiency, b.mean_time_efficiency);
}

TEST(PipelineMechanism, TrainAndEvaluateByteIdenticalOnOrOff) {
  for (const MechCase& mech : kMechanisms) {
    const MechRun off = run_mechanism(mech, false, 1);
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(mech.name) + ", threads " +
                   std::to_string(threads));
      const MechRun on = run_mechanism(mech, true, threads);
      ASSERT_EQ(off.train.size(), on.train.size());
      for (std::size_t i = 0; i < off.train.size(); ++i)
        expect_stats_identical(off.train[i], on.train[i]);
      expect_stats_identical(off.eval, on.eval);
    }
  }
}

}  // namespace
}  // namespace chiron::core
