// Ablation (DESIGN.md §5.2): exterior reward form. The default weights λ
// on the accuracy term only (consistent with the server utility, Eqn 9);
// the literal Eqn (14) also multiplies the time term by λ, which makes the
// time penalty dwarf any accuracy gain at λ = 2000.
#include <iostream>

#include "common/csv.h"
#include "harness_common.h"

using namespace chiron;

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);
  TableWriter out(std::cout);
  out.header({"reward_form", "accuracy", "rounds", "time_efficiency",
              "total_time"});
  for (bool lambda_on_time : {false, true}) {
    std::cerr << "[ablation_reward] lambda_on_time="
              << (lambda_on_time ? "1" : "0") << "\n";
    core::EnvConfig env_cfg =
        bench::make_market(data::VisionTask::kMnistLike, 5, 80.0, opt);
    env_cfg.lambda_on_time = lambda_on_time;
    const core::EpisodeStats s =
        bench::train_and_evaluate<core::HierarchicalMechanism>(
            env_cfg, bench::make_chiron_config(opt), opt)
            .eval;
    out.row({lambda_on_time ? "eqn14_literal" : "eqn9_consistent",
             TableWriter::num(s.final_accuracy, 4),
             std::to_string(s.rounds),
             TableWriter::num(s.mean_time_efficiency, 4),
             TableWriter::num(s.total_time, 1)});
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
