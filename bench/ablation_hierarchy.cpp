// Ablation (DESIGN.md §5.1): value of the hierarchy's inner agent.
// Compares full Chiron, Chiron with the Lemma-1 equal-time oracle inner
// (upper bound on what the inner agent can learn), Chiron with a uniform
// split (no inner agent), and the complete-information static-pricing
// benchmark of §IV (no learning at all, full knowledge of the market).
#include <iostream>

#include "baselines/static_oracle.h"
#include "common/csv.h"
#include "harness_common.h"

using namespace chiron;

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);
  core::EnvConfig env_cfg =
      bench::make_market(data::VisionTask::kMnistLike, 5, 80.0, opt);
  TableWriter out(std::cout);
  out.header({"variant", "accuracy", "rounds", "time_efficiency",
              "avg_episode_reward"});
  struct Variant {
    const char* name;
    bool oracle;
    bool uniform;
  };
  for (const Variant v : {Variant{"learned_inner", false, false},
                          Variant{"oracle_inner", true, false},
                          Variant{"uniform_inner", false, true}}) {
    std::cerr << "[ablation_hierarchy] " << v.name << "\n";
    core::ChironConfig cc = bench::make_chiron_config(opt);
    cc.oracle_inner = v.oracle;
    cc.uniform_inner = v.uniform;
    const bench::TrainedRun run =
        bench::train_and_evaluate<core::HierarchicalMechanism>(env_cfg, cc,
                                                               opt);
    const core::EpisodeStats& s = run.eval;
    out.row({v.name, TableWriter::num(s.final_accuracy, 4),
             std::to_string(s.rounds),
             TableWriter::num(s.mean_time_efficiency, 4),
             TableWriter::num(bench::tail_reward(run.training), 1)});
  }
  {
    std::cerr << "[ablation_hierarchy] static_oracle\n";
    core::EdgeLearnEnv env(env_cfg);
    env.set_round_sink(opt.round_sink);
    baselines::StaticOracleMechanism oracle(env, {});
    oracle.search();
    auto s = oracle.evaluate(opt.eval_episodes);
    out.row({"static_oracle_fullinfo", TableWriter::num(s.final_accuracy, 4),
             std::to_string(s.rounds),
             TableWriter::num(s.mean_time_efficiency, 4),
             TableWriter::num(s.raw_reward_sum, 1)});
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
