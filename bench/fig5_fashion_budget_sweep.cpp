// Fig. 5 — Fashion-MNIST counterpart of Fig. 4 (same three panels).
#include "harness_common.h"

using namespace chiron;

static int run(int argc, char** argv) {
  return bench::run_budget_sweep(argc, argv, data::VisionTask::kFashionLike,
                                 {40, 80, 120, 160, 200}, "fig5");
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
