#include "harness_common.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/error.h"
#include "common/flags.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/pipeline.h"
#include "runtime/runtime.h"
#include "tensor/gemm.h"

namespace chiron::bench {

namespace {
int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}
bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::string(v) == "1";
}
std::string env_str(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}
double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}
}  // namespace

int harness_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    tensor::active_isa();
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "harness") << ": error: " << e.what()
              << "\n";
    return 2;
  }
}

HarnessOptions read_options() {
  HarnessOptions opt;
  opt.chiron_episodes = env_int("CHIRON_EPISODES", opt.chiron_episodes);
  opt.drl_episodes = env_int("CHIRON_EPISODES", opt.drl_episodes);
  opt.greedy_episodes =
      env_int("CHIRON_EPISODES", 4 * opt.greedy_episodes) / 4;
  opt.eval_episodes = env_int("CHIRON_EVAL_EPISODES", opt.eval_episodes);
  opt.real_training = env_flag("CHIRON_REAL_TRAINING");
  opt.seed = static_cast<std::uint64_t>(env_int("CHIRON_SEED", 97));
  opt.threads = env_int("CHIRON_THREADS", 0);
  opt.nodes = env_int("CHIRON_NODES", opt.nodes);
  opt.shards = env_int("CHIRON_SHARDS", opt.shards);
  opt.max_replicas = env_int("CHIRON_MAX_REPLICAS", opt.max_replicas);
  opt.round_log = env_str("CHIRON_ROUND_LOG");
  opt.metrics_out = env_str("CHIRON_METRICS_OUT");
  opt.trace_out = env_str("CHIRON_TRACE");
  opt.adv_fraction = env_double("CHIRON_ADV_FRACTION", opt.adv_fraction);
  opt.adv_misreport = env_double("CHIRON_ADV_MISREPORT", opt.adv_misreport);
  opt.adv_freeride = env_double("CHIRON_ADV_FREERIDE", opt.adv_freeride);
  opt.adv_churn = env_double("CHIRON_ADV_CHURN", opt.adv_churn);
  opt.reserve_price = env_double("CHIRON_RESERVE_PRICE", opt.reserve_price);
  opt.audit_prob = env_double("CHIRON_AUDIT_PROB", opt.audit_prob);
  opt.audit_tolerance =
      env_double("CHIRON_AUDIT_TOLERANCE", opt.audit_tolerance);
  opt.reputation_alpha =
      env_double("CHIRON_REPUTATION_ALPHA", opt.reputation_alpha);
  // CHIRON_PIPELINE is parsed inside runtime::pipeline_enabled(); the
  // explicit read here lets the flag override it below.
  opt.pipeline = runtime::pipeline_enabled();
  runtime::set_threads(opt.threads);
  return opt;
}

HarnessOptions read_options(int argc, const char* const* argv) {
  HarnessOptions opt = read_options();
  FlagParser flags(argc, argv);
  if (flags.has("episodes")) {
    const int episodes = flags.get_int("episodes", 0);
    CHIRON_CHECK_MSG(episodes >= 1, "--episodes must be >= 1");
    opt.chiron_episodes = episodes;
    opt.drl_episodes = episodes;
    opt.greedy_episodes = std::max(1, episodes / 4);
  }
  opt.eval_episodes = flags.get_int("eval-episodes", opt.eval_episodes);
  if (flags.has("real-training")) opt.real_training = true;
  opt.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<int>(opt.seed)));
  opt.round_log = flags.get("round-log", opt.round_log);
  opt.metrics_out = flags.get("metrics-out", opt.metrics_out);
  opt.trace_out = flags.get("trace", opt.trace_out);
  if (flags.has("threads")) {
    opt.threads = threads_flag(flags);
    runtime::set_threads(opt.threads);
  }
  if (flags.has("pipeline")) {
    opt.pipeline = true;
    runtime::set_pipeline(true);
  }
  opt.nodes = flags.get_int("nodes", opt.nodes);
  opt.shards = flags.get_int("shards", opt.shards);
  opt.max_replicas = flags.get_int("max-replicas", opt.max_replicas);
  CHIRON_CHECK_MSG(opt.nodes >= 0, "--nodes must be >= 0");
  CHIRON_CHECK_MSG(opt.shards >= 1, "--shards must be >= 1");
  CHIRON_CHECK_MSG(opt.max_replicas >= 0, "--max-replicas must be >= 0");
  opt.adv_fraction = flags.get_double("adv-fraction", opt.adv_fraction);
  opt.adv_misreport = flags.get_double("adv-misreport", opt.adv_misreport);
  opt.adv_freeride = flags.get_double("adv-freeride", opt.adv_freeride);
  opt.adv_churn = flags.get_double("adv-churn", opt.adv_churn);
  opt.reserve_price = flags.get_double("reserve-price", opt.reserve_price);
  opt.audit_prob = flags.get_double("audit-prob", opt.audit_prob);
  opt.audit_tolerance =
      flags.get_double("audit-tolerance", opt.audit_tolerance);
  opt.reputation_alpha =
      flags.get_double("reputation-alpha", opt.reputation_alpha);
  const auto unknown =
      flags.unknown_flags({"episodes", "eval-episodes", "real-training",
                           "seed", "threads", "pipeline", "round-log",
                           "metrics-out",
                           "trace", "nodes", "shards", "max-replicas",
                           "adv-fraction", "adv-misreport",
                           "adv-freeride", "adv-churn", "reserve-price",
                           "audit-prob", "audit-tolerance",
                           "reputation-alpha"});
  CHIRON_CHECK_MSG(unknown.empty(), "unknown flag --" << unknown.front());
  return opt;
}

ObsSession::ObsSession(HarnessOptions& opt)
    : metrics_out_(opt.metrics_out), trace_out_(opt.trace_out) {
  if (!metrics_out_.empty()) {
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().set_enabled(true);
  }
  if (!trace_out_.empty()) obs::set_tracing(true);
  if (!opt.round_log.empty()) {
    sink_ = obs::make_round_sink(opt.round_log);
    opt.round_sink = sink_.get();
  }
}

ObsSession::~ObsSession() {
  if (!metrics_out_.empty()) {
    obs::MetricsRegistry::instance().set_enabled(false);
    std::ofstream out(metrics_out_, std::ios::trunc);
    if (out.good()) obs::MetricsRegistry::instance().write_json(out);
  }
  if (!trace_out_.empty()) {
    obs::set_tracing(false);
    std::ofstream out(trace_out_, std::ios::trunc);
    if (out.good()) obs::write_trace_jsonl(out);
  }
}

core::EnvConfig make_market(data::VisionTask task, int num_nodes,
                            double budget, const HarnessOptions& opt) {
  core::EnvConfig c;
  c.num_nodes = num_nodes;
  c.task = task;
  c.budget = budget;
  c.seed = opt.seed;
  c.max_rounds = 150;
  c.data_bits_per_node = 5e8 / static_cast<double>(num_nodes);
  c.adversary.fraction = opt.adv_fraction;
  c.adversary.misreport_factor = opt.adv_misreport;
  c.adversary.freeride_prob = opt.adv_freeride;
  c.adversary.churn_prob = opt.adv_churn;
  c.adversary.seed = opt.seed + 104729;  // own stream, like chiron_cli
  c.defense.reserve_price = opt.reserve_price;
  c.defense.audit_prob = opt.audit_prob;
  c.defense.audit_tolerance = opt.audit_tolerance;
  c.defense.reputation_alpha = opt.reputation_alpha;
  c.defense.seed = opt.seed + 1299709;
  c.aggregation_shards = opt.shards;
  c.max_replicas = opt.max_replicas;
  if (opt.real_training) {
    c.backend = core::BackendKind::kRealVision;
    c.samples_per_node = 128;
    c.test_samples = 256;
    c.local.epochs = 5;
    c.local.batch_size = 10;  // paper §VI-A
    c.local.lr = 0.05;
  } else {
    c.backend = core::BackendKind::kSurrogate;
  }
  return c;
}

core::ChironConfig make_chiron_config(const HarnessOptions& opt,
                                      int num_nodes) {
  core::ChironConfig c;
  c.episodes = opt.chiron_episodes;
  c.hidden = 64;
  c.update_epochs = 6;
  c.seed = opt.seed + 1;
  if (num_nodes >= 50) {
    c.gamma = 0.99;
    c.inner_init_log_std = -2.0f;
  }
  return c;
}

std::vector<ApproachResult> compare_approaches(const core::EnvConfig& env_cfg,
                                               const HarnessOptions& opt) {
  std::vector<ApproachResult> out;
  {
    core::EdgeLearnEnv env(env_cfg);
    env.set_round_sink(opt.round_sink);
    core::HierarchicalMechanism chiron(env, make_chiron_config(opt));
    chiron.train();
    out.push_back({"chiron", chiron.evaluate(opt.eval_episodes)});
  }
  {
    core::EdgeLearnEnv env(env_cfg);
    env.set_round_sink(opt.round_sink);
    baselines::SingleDrlConfig dc;
    dc.episodes = opt.drl_episodes;
    dc.hidden = 64;
    dc.actor_lr = 1e-3;
    dc.critic_lr = 1e-3;
    dc.update_epochs = 6;
    dc.seed = opt.seed + 2;
    baselines::SingleAgentDrlMechanism drl(env, dc);
    drl.train();
    out.push_back({"drl_based", drl.evaluate(opt.eval_episodes)});
  }
  {
    core::EdgeLearnEnv env(env_cfg);
    env.set_round_sink(opt.round_sink);
    baselines::GreedyConfig gc;
    gc.episodes = opt.greedy_episodes;
    gc.seed = opt.seed + 3;
    baselines::GreedyMechanism greedy(env, gc);
    greedy.train();
    out.push_back({"greedy", greedy.evaluate(opt.eval_episodes)});
  }
  return out;
}

std::vector<double> reward_series(
    const std::vector<core::EpisodeStats>& eps) {
  std::vector<double> raw;
  raw.reserve(eps.size());
  for (const auto& e : eps) raw.push_back(e.raw_reward_sum);
  return moving_average(raw, 10);
}

}  // namespace chiron::bench
