// Fig. 4 — MNIST, 5 edge nodes, varying total budget η:
//   (a) final global model accuracy, (b) completed training rounds,
//   (c) time efficiency (Eqn 16) — Chiron vs DRL-based vs Greedy.
// One TSV row per (budget, approach); panels are columns.
#include <iostream>

#include "common/csv.h"
#include "harness_common.h"

using namespace chiron;

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);
  const std::vector<double> budgets{40, 80, 120, 160, 200};
  TableWriter out(std::cout);
  out.header({"budget", "approach", "accuracy", "rounds", "time_efficiency",
              "spent", "total_time"});
  for (double budget : budgets) {
    std::cerr << "[fig4] budget " << budget << "\n";
    core::EnvConfig env_cfg =
        bench::make_market(data::VisionTask::kMnistLike, 5, budget, opt);
    for (const auto& r : bench::compare_approaches(env_cfg, opt)) {
      out.row({TableWriter::num(budget, 0), r.name,
               TableWriter::num(r.stats.final_accuracy, 4),
               std::to_string(r.stats.rounds),
               TableWriter::num(r.stats.mean_time_efficiency, 4),
               TableWriter::num(r.stats.spent, 2),
               TableWriter::num(r.stats.total_time, 1)});
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
