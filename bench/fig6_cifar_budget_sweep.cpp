// Fig. 6 — CIFAR-10 counterpart of Fig. 4. The task needs more compute per
// sample (cycles/bit is doubled in make_market) and therefore larger
// budgets, as in the paper ("this leads to different budget constraints").
#include "harness_common.h"

using namespace chiron;

static int run(int argc, char** argv) {
  return bench::run_budget_sweep(argc, argv, data::VisionTask::kCifarLike,
                                 {60, 120, 180, 240, 300}, "fig6");
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
