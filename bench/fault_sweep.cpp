// Fault-rate sweep: how the learned mechanism degrades as mid-round
// failures grow. For each fault rate the full Chiron stack is trained and
// evaluated on a market where crash/straggler/corrupt faults fire at that
// per-node per-round rate under a server deadline, with pay-on-delivery
// economics (DESIGN.md "Fault model & tolerance"). Reports accuracy,
// rounds, realized spend, Eqn-(16) time efficiency and delivery counts.
#include <iostream>

#include "common/csv.h"
#include "harness_common.h"

using namespace chiron;

namespace {

/// Delivery accounting of one replayed evaluation episode (EpisodeStats
/// does not carry the fault counters).
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
    // After evaluation, replay one seeded episode for the delivery tally.
    FaultTally tally;
    const core::EpisodeStats s =
        bench::train_and_evaluate<core::HierarchicalMechanism>(
            env_cfg, bench::make_chiron_config(opt), opt,
            [&](core::HierarchicalMechanism& mech, core::EdgeLearnEnv& env) {
              Rng rng(env_cfg.seed + 17);
              core::HierarchicalMechanism::Policy replay(mech, rng);
              core::play_episode(env, replay, [&](const core::StepResult& r) {
                tally.delivered += r.delivered;
                tally.crashed += r.crashed;
                tally.late += r.late;
                tally.rejected += r.rejected;
              });
            })
            .eval;

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
