// Fault-rate sweep: how the learned mechanism degrades as mid-round
// failures grow. For each fault rate the full Chiron stack is trained and
// evaluated on a market where crash/straggler/corrupt faults fire at that
// per-node per-round rate under a server deadline, with pay-on-delivery
// economics (DESIGN.md "Fault model & tolerance"). Reports accuracy,
// rounds, realized spend, Eqn-(16) time efficiency and delivery counts.
#include <iostream>

#include "common/csv.h"
#include "core/actions.h"
#include "core/env.h"
#include "harness_common.h"

using namespace chiron;

namespace {

/// One evaluation episode with delivery accounting (EpisodeStats does not
/// carry the fault counters; the trace here replays the greedy policy of
/// mech.evaluate and tallies them).
struct FaultTally {
  int delivered = 0;
  int crashed = 0;
  int late = 0;
  int rejected = 0;
};

}  // namespace

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);
  TableWriter out(std::cout);
  out.header({"fault_rate", "accuracy", "rounds", "spent", "time_efficiency",
              "delivered", "crashed", "late", "rejected"});
  for (double rate : {0.0, 0.1, 0.2, 0.4}) {
    std::cerr << "[fault_sweep] fault_rate=" << rate << "\n";
    core::EnvConfig env_cfg =
        bench::make_market(data::VisionTask::kMnistLike, 5, 80.0, opt);
    env_cfg.faults.crash_prob = rate;
    env_cfg.faults.straggler_prob = rate;
    env_cfg.faults.corrupt_prob = rate / 2;
    env_cfg.faults.persistent_prob = 0.1;
    env_cfg.faults.seed = opt.seed + 40961;
    env_cfg.round_deadline = 150.0;
    core::EdgeLearnEnv env(env_cfg);
    env.set_round_sink(opt.round_sink);
    core::HierarchicalMechanism mech(env, bench::make_chiron_config(opt));
    mech.train();
    auto s = mech.evaluate(opt.eval_episodes);

    // Replay one deterministic episode for the delivery tally.
    FaultTally tally;
    env.reset();
    Rng rng(env_cfg.seed + 17);
    while (!env.done()) {
      auto ext = mech.exterior_agent().act(env.exterior_state(), rng);
      const double p_total =
          core::map_total_price(ext.action[0], env.price_cap());
      auto inner = mech.inner_agent().act(
          {static_cast<float>(p_total / env.price_cap())}, rng);
      auto res = env.step(core::combine_prices(
          p_total, core::map_proportions(inner.action)));
      if (res.aborted) break;
      tally.delivered += res.delivered;
      tally.crashed += res.crashed;
      tally.late += res.late;
      tally.rejected += res.rejected;
    }

    out.row({TableWriter::num(rate, 2), TableWriter::num(s.final_accuracy, 4),
             std::to_string(s.rounds), TableWriter::num(s.spent, 2),
             TableWriter::num(s.mean_time_efficiency, 4),
             std::to_string(tally.delivered), std::to_string(tally.crashed),
             std::to_string(tally.late), std::to_string(tally.rejected)});
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
