// Extension exhibit: Chiron under non-IID data (Dirichlet label-skew
// shards) with real federated training, and under node churn (partial
// availability). Not a paper figure — the paper assumes IID shards and
// always-online nodes — but these are the conditions a deployed mechanism
// would face, and the mechanism layer should degrade gracefully.
#include <iostream>

#include "common/csv.h"
#include "harness_common.h"

using namespace chiron;

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);
  TableWriter out(std::cout);
  out.header({"scenario", "accuracy", "rounds", "time_efficiency", "spent"});

  struct Scenario {
    const char* name;
    bool noniid;
    double alpha;
    double availability;
  };
  for (const Scenario sc :
       {Scenario{"iid_full_availability", false, 0.5, 1.0},
        Scenario{"dirichlet_0.3", true, 0.3, 1.0},
        Scenario{"availability_0.8", false, 0.5, 0.8},
        Scenario{"dirichlet_0.3_avail_0.8", true, 0.3, 0.8}}) {
    std::cerr << "[ablation_noniid] " << sc.name << "\n";
    core::EnvConfig env_cfg =
        bench::make_market(data::VisionTask::kMnistLike, 5, 80.0, opt);
    // Real federated SGD on the fast blobs substrate so label-skew truly
    // affects the accuracy trajectory.
    env_cfg.backend = core::BackendKind::kRealBlobs;
    env_cfg.samples_per_node = 40;
    env_cfg.test_samples = 120;
    env_cfg.local.epochs = 2;
    env_cfg.local.batch_size = 10;
    env_cfg.local.lr = 0.05;
    env_cfg.noniid = sc.noniid;
    env_cfg.dirichlet_alpha = sc.alpha;
    env_cfg.node_availability = sc.availability;
    core::ChironConfig cc = bench::make_chiron_config(opt);
    cc.episodes = std::min(opt.chiron_episodes, 150);  // real training
    const core::EpisodeStats s =
        bench::train_and_evaluate<core::HierarchicalMechanism>(env_cfg, cc,
                                                               opt)
            .eval;
    out.row({sc.name, TableWriter::num(s.final_accuracy, 4),
             std::to_string(s.rounds),
             TableWriter::num(s.mean_time_efficiency, 4),
             TableWriter::num(s.spent, 2)});
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
