// Table I — "Performance of Chiron under MNIST with 100 edge nodes":
// budgets η ∈ {140, 220, 300, 380} → final accuracy, completed rounds,
// time efficiency.
#include <iostream>

#include "common/csv.h"
#include "harness_common.h"
#include "runtime/runtime.h"

using namespace chiron;

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);
  std::cerr << "[table1] runtime pool: " << runtime::threads()
            << " threads (CHIRON_THREADS to override)\n";
  const std::vector<double> budgets{140, 220, 300, 380};
  TableWriter out(std::cout);
  out.header({"budget", "accuracy", "rounds", "time_efficiency"});
  for (double budget : budgets) {
    std::cerr << "[table1] budget " << budget << "\n";
    core::EnvConfig env_cfg =
        bench::make_market(data::VisionTask::kMnistLike, 100, budget, opt);
    const core::EpisodeStats s =
        bench::train_and_evaluate<core::HierarchicalMechanism>(
            env_cfg, bench::make_chiron_config(opt, 100), opt)
            .eval;
    out.row({TableWriter::num(budget, 0),
             TableWriter::num(s.final_accuracy, 3),
             std::to_string(s.rounds),
             TableWriter::num(100.0 * s.mean_time_efficiency, 1) + "%"});
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
