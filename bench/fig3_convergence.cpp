// Fig. 3 — "Convergence of Chiron under MNIST": average episode reward of
// the hierarchical agent over training, 5 edge nodes. The paper trains for
// 500 episodes on real MNIST; the default here runs real federated SGD on
// the fast blobs task (CHIRON_FIG3_BLOBS=0 / CHIRON_REAL_TRAINING=1 for
// the full synthetic-MNIST CNN), with a reduced episode count
// (CHIRON_EPISODES to override).
#include <algorithm>
#include <iostream>

#include "common/csv.h"
#include "harness_common.h"

using namespace chiron;

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);
  core::EnvConfig env_cfg =
      bench::make_market(data::VisionTask::kMnistLike, 5, 60.0, opt);
  const bool use_blobs =
      bench::env_switch("CHIRON_FIG3_BLOBS", true) && !opt.real_training;
  if (use_blobs) {
    // Real federated SGD, fast substrate: MLP on Gaussian blobs.
    env_cfg.backend = core::BackendKind::kRealBlobs;
    env_cfg.samples_per_node = 40;
    env_cfg.test_samples = 120;
    env_cfg.local.epochs = 3;
    env_cfg.local.batch_size = 10;
    env_cfg.local.lr = 0.05;
  }
  core::EdgeLearnEnv env(env_cfg);
  env.set_round_sink(opt.round_sink);
  core::HierarchicalMechanism chiron(env, bench::make_chiron_config(opt));

  std::cerr << "[fig3] training Chiron for " << opt.chiron_episodes
            << " episodes (backend="
            << (use_blobs ? "real-blobs"
                          : (opt.real_training ? "real-vision" : "surrogate"))
            << ")\n";
  auto episodes = chiron.train();
  auto series = bench::reward_series(episodes);

  TableWriter out(std::cout);
  out.header({"episode", "avg_episode_reward", "rounds", "accuracy",
              "time_efficiency"});
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    out.row({std::to_string(i), TableWriter::num(series[i], 2),
             std::to_string(episodes[i].rounds),
             TableWriter::num(episodes[i].final_accuracy, 4),
             TableWriter::num(episodes[i].mean_time_efficiency, 4)});
  }
  // Paper-shape summary: the late-window reward must exceed the early one.
  // The windows are 10 episodes wide, narrowed so short runs keep them
  // disjoint; with fewer than 2 episodes there is nothing to compare.
  const std::size_t window = std::min<std::size_t>(10, episodes.size() / 2);
  if (window == 0) return 0;
  const double early = core::mean_raw_reward(episodes, 0, window);
  const double late = bench::tail_reward(episodes, window);
  std::cerr << "[fig3] early-window reward " << early << " -> late-window "
            << late << (late > early ? "  (rising: OK)" : "  (NOT rising)")
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
