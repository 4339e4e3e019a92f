// market_100k and market_adv_10k — EdgeLearnEnv on the surrogate backend
// driven by a seeded price schedule; episodes end on the budget. The op is
// exterior_state() followed by step(); results are read from StepResult
// (a round sink would make the env build five N-long vectors per round).
//
//   market_100k     honest 100k-node market: the EconomicsPlane batched
//                   path (N > 8192 ⇒ chunked reduction), commit/settle and
//                   history/state building do the work.
//   market_adv_10k  10k nodes with adversary misreport, free-ride and
//                   churn, faults (crash, straggler, round deadline) and
//                   all three defenses: the adversarial commit's scalar
//                   misreported_response + aggregate_round do the work.
#include <algorithm>
#include <memory>

#include "adversary/adversary_plan.h"
#include "adversary/defense.h"
#include "faults/fault_plan.h"
#include "sysmodel/economics.h"
#include "sysmodel/plane.h"
#include "workloads.h"

namespace perfbench {

using namespace chiron;

namespace {

struct MarketSpec {
  const char* name;
  int nodes;
  /// η per node, sized for ~20-round episodes. market_100k's sits midway
  /// between the spend after 20 and after 21 rounds, so the round count
  /// does not flip between seeds.
  double budget_per_node;
  bool adversarial;
  int setup_reps;
  int warmup_steps;
};

constexpr MarketSpec kHonest{"market_100k", 100000, 58.9, false, 5, 8};
constexpr MarketSpec kAdversarial{"market_adv_10k", 10000, 49.2, true, 5, 4};

constexpr int kUtilityEpisodes = 3;

core::EnvConfig market_config(const MarketSpec& m, std::uint64_t seed) {
  core::EnvConfig c;
  c.num_nodes = m.nodes;
  c.backend = core::BackendKind::kSurrogate;
  c.budget = m.budget_per_node * m.nodes;
  c.max_rounds = 1000;
  c.seed = seed;
  if (m.adversarial) {
    c.adversary.fraction = 0.2;
    c.adversary.misreport_factor = 1.6;
    c.adversary.freeride_prob = 0.2;
    c.adversary.churn_prob = 0.02;
    c.adversary.seed = seed ^ 0xad5eedu;
    c.faults.crash_prob = 0.05;
    c.faults.straggler_prob = 0.1;
    c.faults.persistent_prob = 0.1;
    c.faults.seed = seed ^ 0xfa17u;
    c.round_deadline = 60.0;
    c.defense.reserve_price = 0.085;
    c.defense.audit_prob = 0.3;
    c.defense.audit_tolerance = 1.25;
    c.defense.reputation_alpha = 0.2;
    c.defense.seed = seed ^ 0xa0d17u;
  }
  return c;
}

struct Instance {
  std::unique_ptr<core::EdgeLearnEnv> env;
  PricePool prices;
  double fingerprint = 0.0;
};

/// Construction, schedule generation and a fixed warm-up of a few steps.
Instance build(const MarketSpec& m, std::uint64_t seed) {
  Instance in;
  in.env = std::make_unique<core::EdgeLearnEnv>(market_config(m, seed));
  in.prices = make_price_pool(*in.env, seed);
  in.env->reset();
  for (int k = 0; k < m.warmup_steps && !in.env->done(); ++k) {
    (void)in.env->exterior_state();
    const core::StepResult r = in.env->step(scheduled_prices(in.prices, 0, k));
    if (k == 0) in.fingerprint = r.raw_exterior_reward + r.payment;
  }
  return in;
}

/// Per-op observer of the closed loop (checks, utility, counters).
struct Loop {
  long ops = 0;
  OpLog log;
  std::vector<double> episode_utility;
  std::vector<double> reset_ms;
  // Useful-outcome ratios (summed over ops).
  double participants = 0, offered = 0, delivered = 0, screened = 0,
         flagged = 0;
};

/// Replicas of the layer objects whose work step() does internally, for
/// the replay spans of the traced run.
class Replays {
 public:
  Replays(const core::EdgeLearnEnv& env, bool adversarial)
      : env_(env),
        adversarial_(adversarial),
        plane_(env.devices(), env.config().local_epochs) {
    if (adversarial) {
      aplan_ = std::make_unique<adversary::AdversaryPlan>(
          env.config().adversary, env.num_nodes());
      fplan_ = std::make_unique<faults::FaultPlan>(env.config().faults,
                                                   env.num_nodes());
    }
  }

  void reset() {
    if (aplan_) aplan_->reset();
    if (fplan_) fplan_->reset();
  }

  /// Work attributed to the closed core.step span `parent`.
  void after_step(Tracer& t, int parent, int planned_round,
                  const std::vector<double>& posted,
                  const core::StepResult& r) {
    const int sigma = env_.config().local_epochs;
    if (!adversarial_) {
      {
        Scope s(t, "sysmodel.best_response", parent);
        plane_.best_response_batch(posted, batch_);
      }
      Scope s(t, "sysmodel.aggregate", parent);
      plane_.aggregate_round(batch_);
      return;
    }
    std::vector<adversary::AdversaryEvent> adv;
    {
      Scope s(t, "adversary.plan_round", parent);
      adv = aplan_->plan_round(planned_round);
    }
    {
      Scope s(t, "faults.plan_round", parent);
      fplan_->plan_round(planned_round);
    }
    if (r.aborted) return;
    const auto& devices = env_.devices();
    std::vector<sysmodel::NodeDecision> decisions;
    {
      Scope s(t, "sysmodel.misreport", parent);
      decisions.reserve(devices.size());
      for (std::size_t i = 0; i < devices.size(); ++i) {
        const double f = adv[i].adversarial ? adv[i].misreport_factor : 1.0;
        decisions.push_back(sysmodel::misreported_response(
            devices[i], r.outcome.nodes[i].price, sigma, f));
      }
    }
    sysmodel::RoundOutcome promised;
    {
      Scope s(t, "sysmodel.aggregate", parent);
      promised = sysmodel::aggregate_round(std::move(decisions));
    }
    std::vector<double> times(devices.size());
    std::vector<bool> paid(devices.size());
    for (std::size_t i = 0; i < devices.size(); ++i) {
      times[i] = r.outcome.nodes[i].total_time;
      paid[i] = r.outcome.nodes[i].payment > 0.0;
    }
    {
      Scope s(t, "sysmodel.realize_round", parent);
      sysmodel::realize_round(promised, times, paid);
    }
    // The env draws an audit for every delivered upload: the paid nodes
    // plus the flagged ones, which are among the unpaid participants.
    Scope s(t, "adversary.audit", parent);
    int unpaid_left = r.flagged;
    for (std::size_t i = 0; i < devices.size(); ++i) {
      const auto& n = r.outcome.nodes[i];
      if (!n.participates) continue;
      if (n.payment <= 0.0 && unpaid_left-- <= 0) continue;
      adversary::audit_fires(env_.config().defense, planned_round,
                             static_cast<int>(i));
    }
  }

 private:
  const core::EdgeLearnEnv& env_;
  bool adversarial_;
  sysmodel::EconomicsPlane plane_;
  sysmodel::DecisionBatch batch_;
  std::unique_ptr<adversary::AdversaryPlan> aplan_;
  std::unique_ptr<faults::FaultPlan> fplan_;
};

/// The closed loop. Runs whole episodes until `seconds` have passed (and
/// at least `min_episodes` episodes and `min_ops` ops ran) or, with
/// max_ops > 0, exactly max_ops ops.
/// With a tracer and replays, every op is traced and the layers inside
/// step() are replayed under it.
Loop run_loop(Instance& in, const MarketSpec& m, Result* res, double seconds,
              int min_episodes, long min_ops, long max_ops, Tracer* t,
              Replays* rp) {
  Loop L;
  core::EdgeLearnEnv& env = *in.env;
  EconomicsCheck econ(env.budget_initial());
  const auto t0 = Clock::now();
  for (int e = 0;; ++e) {
    const auto r0 = Clock::now();
    if (t) {
      Scope s(*t, "core.reset");
      env.reset();
    } else {
      env.reset();
    }
    if (rp) rp->reset();
    L.reset_ms.push_back(seconds_between(r0, Clock::now()) * 1e3);
    econ.new_episode();
    double utility = 0.0;
    int k = 0;
    while (!env.done() && (max_ops <= 0 || L.ops < max_ops)) {
      const std::vector<double>& p = scheduled_prices(in.prices, e, k++);
      const int planned = env.round();
      const auto a = Clock::now();
      core::StepResult r;
      if (t) {
        Scope root(*t, m.name);
        int step_id = -1;
        {
          Scope s(*t, "core.exterior_state");
          env.exterior_state();
        }
        {
          Scope s(*t, "core.step");
          step_id = s.id();
          r = env.step(p);
        }
        rp->after_step(*t, step_id, planned, p, r);
      } else {
        env.exterior_state();
        r = env.step(p);
      }
      const auto b = Clock::now();
      L.log.add(seconds_between(a, b) * 1e3, seconds_between(t0, b));
      ++L.ops;
      if (res) {
        ++res->attempted;
        const std::string why = econ.after_step(env, r);
        if (!why.empty()) res->fail_op(std::string(m.name) + ": " + why);
      }
      if (!r.aborted) {
        utility += r.raw_exterior_reward;
        L.participants += r.participants;
        L.offered += m.nodes - r.offline;
        L.delivered += r.delivered;
        L.screened += r.screened;
        L.flagged += r.flagged;
      }
    }
    L.episode_utility.push_back(utility);
    if (max_ops > 0 ? L.ops >= max_ops
                    : (seconds_between(t0, Clock::now()) >= seconds &&
                       e + 1 >= min_episodes && L.ops >= min_ops))
      break;
  }
  return L;
}

}  // namespace

void run_market(const Options& opt, Result& res, Tracer& tracer,
                bool adversarial) {
  const MarketSpec& m = adversarial ? kAdversarial : kHonest;
  Instance in;
  const double setup_s = timed_setup(
      opt, res, m.setup_reps,
      [&m](std::uint64_t seed) { return build(m, seed); }, in);

  if (!opt.trace) {
    const Loop L = run_loop(in, m, &res, opt.seconds, kUtilityEpisodes,
                            kMinOps, 0, nullptr, nullptr);
    const double utility = mean(std::vector<double>(
        L.episode_utility.begin(), L.episode_utility.begin() + kUtilityEpisodes));
    const std::string why = check_utility_ledger(opt, "episodes", utility);
    if (!why.empty()) res.fail_check(std::string(m.name) + ": " + why);
    const double throughput = L.log.throughput();
    res.add("setup_s", setup_s, "s");
    res.add("throughput", throughput, "1/s");
    res.add("latency_ms_p50", windowed_quantile(L.log.latency_ms, 0.5), "ms");
    res.add("latency_ms_p90", windowed_quantile(L.log.latency_ms, 0.9), "ms");
    res.add("peak_rss_mb", peak_rss_mb(), "MiB");
    res.add("utility", utility, "utility");
    res.add("max_rate", throughput, "1/s");
    return;
  }

  // Traced run: the reference loop untraced, then the same ops replayed
  // twice (spans off, spans on) with the layer replays under core.step.
  const Loop ref =
      run_loop(in, m, &res, opt.seconds * 0.4, 1, 0, 0, nullptr, nullptr);
  const double op_ms = mean(ref.log.latency_ms);
  Replays rp(*in.env, adversarial);
  Tracer off(false);
  const auto a = Clock::now();
  const Loop untraced =
      run_loop(in, m, nullptr, opt.seconds * 0.25, 1, 0, 0, &off, &rp);
  const double untraced_s = seconds_between(a, Clock::now());
  const auto b = Clock::now();
  const Loop traced =
      run_loop(in, m, nullptr, 0.0, 1, 0, untraced.ops, &tracer, &rp);
  const double traced_s = seconds_between(b, Clock::now());
  const std::string bad = tracer.check();
  if (!bad.empty()) res.fail_check(std::string(m.name) + " trace: " + bad);

  auto self_ms = [&](const char* n) { return tracer.layer(n).self_ms; };
  const double ops = static_cast<double>(traced.ops);
  const char* attributed_layers[] = {
      "core.exterior_state", "core.step", "sysmodel.best_response",
      "sysmodel.aggregate", "adversary.plan_round", "faults.plan_round",
      "sysmodel.misreport", "sysmodel.realize_round", "adversary.audit"};
  double attributed = 0.0;
  for (const char* n : attributed_layers) attributed += self_ms(n);
  attributed /= ops;

  res.add("core.exterior_state_ms", self_ms("core.exterior_state") / ops, "ms");
  res.add("core.step_ms", self_ms("core.step") / ops, "ms");
  res.add("core.reset_ms", self_ms("core.reset") /
          static_cast<double>(traced.reset_ms.size()), "ms");
  res.add("sysmodel.aggregate_ms", self_ms("sysmodel.aggregate") / ops, "ms");
  res.add(std::string(m.name) + ".unattributed_ms", op_ms - attributed, "ms");
  res.add("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0,
          "%");
  if (!adversarial) {
    res.add("sysmodel.best_response_ms", self_ms("sysmodel.best_response") / ops,
            "ms");
    res.add("core.participation_ratio", ref.participants / ref.offered, "ratio");
    return;
  }
  res.add("adversary.plan_round_ms", self_ms("adversary.plan_round") / ops, "ms");
  res.add("faults.plan_round_ms", self_ms("faults.plan_round") / ops, "ms");
  res.add("sysmodel.misreport_ms", self_ms("sysmodel.misreport") / ops, "ms");
  res.add("sysmodel.realize_round_ms", self_ms("sysmodel.realize_round") / ops,
          "ms");
  res.add("adversary.audit_us", self_ms("adversary.audit") / ops * 1e3, "us");
  res.add("core.delivered_ratio", ref.delivered / ref.participants, "ratio");
  res.add("adversary.screened_ratio", ref.screened / ref.offered, "ratio");
  res.add("adversary.flagged_ratio", ref.flagged / ref.delivered, "ratio");
}

}  // namespace perfbench
