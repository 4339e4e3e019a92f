// Fig. 7 — scalability at 100 edge nodes under MNIST:
//   (a) Chiron's exterior agent converges (reward rises over episodes);
//   (b) the single-agent DRL-based approach fails to converge.
// TSV series: episode → smoothed episode reward per approach.
// `--nodes N` (or CHIRON_NODES) overrides the paper's 100-node market for
// scale studies; --shards/--max-replicas engage the §5.12 scaling paths.
#include <iostream>

#include "common/csv.h"
#include "harness_common.h"
#include "runtime/runtime.h"

using namespace chiron;

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);
  const int nodes = opt.nodes > 0 ? opt.nodes : 100;
  core::EnvConfig env_cfg =
      bench::make_market(data::VisionTask::kMnistLike, nodes, 140.0, opt);

  std::cerr << "[fig7] runtime pool: " << runtime::threads()
            << " threads (CHIRON_THREADS to override)\n";
  std::cerr << "[fig7] training Chiron (" << nodes << " nodes, "
            << opt.chiron_episodes << " episodes)\n";
  core::EdgeLearnEnv env_c(env_cfg);
  env_c.set_round_sink(opt.round_sink);
  core::HierarchicalMechanism chiron(env_c,
                                     bench::make_chiron_config(opt, nodes));
  auto chiron_eps = chiron.train();
  auto chiron_series = bench::reward_series(chiron_eps);

  std::cerr << "[fig7] training DRL-based (" << nodes << " nodes)\n";
  core::EdgeLearnEnv env_d(env_cfg);
  env_d.set_round_sink(opt.round_sink);
  baselines::SingleDrlConfig dc = bench::make_drl_config(opt);
  dc.episodes = opt.chiron_episodes;  // same series length as Chiron
  baselines::SingleAgentDrlMechanism drl(env_d, dc);
  auto drl_eps = drl.train();
  auto drl_series = bench::reward_series(drl_eps);

  TableWriter out(std::cout);
  out.header({"episode", "chiron_avg_reward", "drl_based_avg_reward"});
  const std::size_t n = std::min(chiron_series.size(), drl_series.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.row({std::to_string(i), TableWriter::num(chiron_series[i], 2),
             TableWriter::num(drl_series[i], 2)});
  }
  // Paper-shape summary: at 100 nodes Chiron sustains a clearly higher
  // final reward than the single-agent baseline, whose reward fails to
  // improve over training (Fig 7(b): "cannot converge").
  const std::size_t tail = std::min<std::size_t>(50, n);
  const double c_final = bench::tail_reward(chiron_eps, tail);
  const double d_final = bench::tail_reward(drl_eps, tail);
  const double d_gain = d_final - core::mean_raw_reward(drl_eps, 0, tail);
  std::cerr << "[fig7] final avg reward: chiron=" << c_final
            << " drl_based=" << d_final
            << "; drl training gain=" << d_gain << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
