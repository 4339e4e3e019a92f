#include "harness_common.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <utility>

#include "common/csv.h"
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

/// The value of a switch's variable: 0 or 1 through the checked integer
/// parser, anything else an error naming `name`.
bool parse_switch(const std::string& text, const std::string& name) {
  const int on = parse_int(text, name);
  CHIRON_CHECK_MSG(on == 0 || on == 1,
                   name << " must be 0 or 1, got " << on);
  return on == 1;
}

/// Reads each option from its flag, else its CHIRON_* variable, else the
/// default — through the same checked parsers — and remembers the flag
/// names it was asked about so the rest can be rejected as unknown.
class OptionReader {
 public:
  explicit OptionReader(const FlagParser& flags) : flags_(flags) {}

  /// The text of --`flag`, else of its variable (--max-replicas ↔
  /// CHIRON_MAX_REPLICAS) when `env`, with the name to blame for it.
  std::optional<std::pair<std::string, std::string>> lookup(
      const std::string& flag, bool env = true) {
    known_.push_back(flag);
    if (flags_.has(flag)) return std::make_pair(flags_.get(flag), "--" + flag);
    std::string var = "CHIRON_" + flag;
    for (char& c : var) c = c == '-' ? '_' : static_cast<char>(std::toupper(c));
    const char* v = env ? std::getenv(var.c_str()) : nullptr;
    if (v == nullptr) return std::nullopt;
    return std::make_pair(std::string(v), var);
  }

  /// An integer option; a value below `min` is a named error.
  int get_int(const std::string& flag, int fallback, int min = INT_MIN) {
    const auto v = lookup(flag);
    if (!v) return fallback;
    const int n = parse_int(v->first, v->second);
    CHIRON_CHECK_MSG(n >= min,
                     v->second << " must be >= " << min << ", got " << n);
    return n;
  }

  double get_double(const std::string& flag, double fallback) {
    const auto v = lookup(flag);
    return v ? parse_double(v->first, v->second) : fallback;
  }

  std::string get(const std::string& flag) {
    const auto v = lookup(flag);
    return v ? v->first : std::string();
  }

  /// A bare --`flag`, or its variable set to 0 or 1.
  bool get_switch(const std::string& flag) {
    const auto v = lookup(flag);
    if (!v || flags_.has(flag)) return v.has_value();
    return parse_switch(v->first, v->second);
  }

  void reject_unknown() const {
    const auto unknown = flags_.unknown_flags(known_);
    CHIRON_CHECK_MSG(unknown.empty(), "unknown flag --" << unknown.front());
  }

 private:
  const FlagParser& flags_;
  std::vector<std::string> known_;
};

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

bool env_switch(const char* var, bool fallback) {
  const char* v = std::getenv(var);
  return v == nullptr ? fallback : parse_switch(v, var);
}

HarnessOptions read_options(int argc, const char* const* argv) {
  HarnessOptions opt;
  const FlagParser flags(argc, argv);
  OptionReader in(flags);
  if (const int episodes = in.get_int("episodes", 0, 1); episodes > 0) {
    opt.chiron_episodes = episodes;
    opt.drl_episodes = episodes;
    opt.greedy_episodes = std::max(1, episodes / 4);
  }
  opt.eval_episodes = in.get_int("eval-episodes", opt.eval_episodes, 1);
  opt.real_training = in.get_switch("real-training");
  opt.seed = static_cast<std::uint64_t>(
      in.get_int("seed", static_cast<int>(opt.seed)));
  opt.threads = in.get_int("threads", opt.threads, 0);  // 0 = auto
  runtime::set_threads(opt.threads);
  // CHIRON_PIPELINE is parsed inside runtime::pipeline_enabled().
  if (in.lookup("pipeline", /*env=*/false)) runtime::set_pipeline(true);
  opt.pipeline = runtime::pipeline_enabled();
  opt.nodes = in.get_int("nodes", opt.nodes, 0);
  opt.shards = in.get_int("shards", opt.shards, 1);
  opt.max_replicas = in.get_int("max-replicas", opt.max_replicas, 0);
  opt.round_log = in.get("round-log");
  opt.metrics_out = in.get("metrics-out");
  opt.trace_out = in.get("trace");
  opt.adv_fraction = in.get_double("adv-fraction", opt.adv_fraction);
  opt.adv_misreport = in.get_double("adv-misreport", opt.adv_misreport);
  opt.adv_freeride = in.get_double("adv-freeride", opt.adv_freeride);
  opt.adv_churn = in.get_double("adv-churn", opt.adv_churn);
  opt.reserve_price = in.get_double("reserve-price", opt.reserve_price);
  opt.audit_prob = in.get_double("audit-prob", opt.audit_prob);
  opt.audit_tolerance =
      in.get_double("audit-tolerance", opt.audit_tolerance);
  opt.reputation_alpha =
      in.get_double("reputation-alpha", opt.reputation_alpha);
  in.reject_unknown();
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

baselines::SingleDrlConfig make_drl_config(const HarnessOptions& opt) {
  baselines::SingleDrlConfig c;
  c.episodes = opt.drl_episodes;
  c.hidden = 64;
  c.actor_lr = 1e-3;
  c.critic_lr = 1e-3;
  c.update_epochs = 6;
  c.seed = opt.seed + 2;
  return c;
}

std::vector<ApproachResult> compare_approaches(const core::EnvConfig& env_cfg,
                                               const HarnessOptions& opt) {
  baselines::GreedyConfig gc;
  gc.episodes = opt.greedy_episodes;
  gc.seed = opt.seed + 3;
  // Braced initializers run in order: Chiron, then DRL-based, then Greedy.
  return {
      {"chiron", train_and_evaluate<core::HierarchicalMechanism>(
                     env_cfg, make_chiron_config(opt), opt)
                     .eval},
      {"drl_based", train_and_evaluate<baselines::SingleAgentDrlMechanism>(
                        env_cfg, make_drl_config(opt), opt)
                        .eval},
      {"greedy", train_and_evaluate<baselines::GreedyMechanism>(env_cfg, gc,
                                                                opt)
                     .eval}};
}

int run_budget_sweep(int argc, char** argv, data::VisionTask task,
                     const std::vector<double>& budgets, const char* tag) {
  HarnessOptions opt = read_options(argc, argv);
  ObsSession obs_session(opt);
  TableWriter out(std::cout);
  out.header({"budget", "approach", "accuracy", "rounds", "time_efficiency",
              "spent", "total_time"});
  for (double budget : budgets) {
    std::cerr << "[" << tag << "] budget " << budget << "\n";
    const core::EnvConfig env_cfg = make_market(task, 5, budget, opt);
    for (const auto& r : compare_approaches(env_cfg, opt)) {
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

std::vector<double> reward_series(
    const std::vector<core::EpisodeStats>& eps) {
  std::vector<double> raw;
  raw.reserve(eps.size());
  for (const auto& e : eps) raw.push_back(e.raw_reward_sum);
  return moving_average(raw, 10);
}

double tail_reward(const std::vector<core::EpisodeStats>& eps,
                   std::size_t width) {
  const std::size_t n = std::min(width, eps.size());
  return core::mean_raw_reward(eps, eps.size() - n, eps.size());
}

}  // namespace chiron::bench
