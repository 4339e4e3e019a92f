// Fig. 4 — MNIST, 5 edge nodes, varying total budget η:
//   (a) final global model accuracy, (b) completed training rounds,
//   (c) time efficiency (Eqn 16) — Chiron vs DRL-based vs Greedy.
// One TSV row per (budget, approach); panels are columns.
#include "harness_common.h"

using namespace chiron;

static int run(int argc, char** argv) {
  return bench::run_budget_sweep(argc, argv, data::VisionTask::kMnistLike,
                                 {40, 80, 120, 160, 200}, "fig4");
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
