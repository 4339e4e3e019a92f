// Ablation (DESIGN.md §5.3): history window L in the exterior state
// ("the previous L rounds", §V-A). Larger L gives the exterior agent more
// context on how its pricing changed system behaviour, at the cost of a
// bigger observation.
#include <iostream>

#include "common/csv.h"
#include "harness_common.h"

using namespace chiron;

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);
  TableWriter out(std::cout);
  out.header({"history_L", "state_dim", "accuracy", "rounds",
              "time_efficiency", "avg_episode_reward"});
  for (int L : {1, 2, 4}) {
    std::cerr << "[ablation_history] L=" << L << "\n";
    core::EnvConfig env_cfg =
        bench::make_market(data::VisionTask::kMnistLike, 5, 80.0, opt);
    env_cfg.history = L;
    std::int64_t state_dim = 0;
    const bench::TrainedRun run =
        bench::train_and_evaluate<core::HierarchicalMechanism>(
            env_cfg, bench::make_chiron_config(opt), opt,
            [&](core::HierarchicalMechanism&, core::EdgeLearnEnv& env) {
              state_dim = env.exterior_state_dim();
            });
    const core::EpisodeStats& s = run.eval;
    out.row({std::to_string(L), std::to_string(state_dim),
             TableWriter::num(s.final_accuracy, 4),
             std::to_string(s.rounds),
             TableWriter::num(s.mean_time_efficiency, 4),
             TableWriter::num(bench::tail_reward(run.training), 1)});
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
