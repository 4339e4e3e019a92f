// chiron_cli — command-line driver for the library.
//
//   chiron_cli market  [--nodes N] [--seed S]
//       Print the sampled device market (private parameters, saturation
//       prices, participation floors).
//
//   chiron_cli train   [--nodes N] [--budget B] [--task mnist|fashion|cifar]
//                      [--episodes E] [--seed S] [--save PATH] [--trace]
//       Train the Chiron hierarchical mechanism, print training progress
//       and the evaluated policy; optionally checkpoint and trace the
//       final evaluation episode round by round.
//
//   chiron_cli compare [--nodes N] [--budget B] [--task T] [--episodes E]
//       Train Chiron, DRL-based, Greedy and the complete-information
//       static oracle on the same market and print the comparison table.
//
//   chiron_cli sweep   [--task T] [--budgets 40,80,120] [--episodes E]
//       Budget sweep for one task (the Fig. 4/5/6 row generator).
//
// Observability (train/compare/sweep; DESIGN.md §5.9):
//   --round-log PATH    structured per-round log (.jsonl or .csv)
//   --metrics-out PATH  end-of-run metrics snapshot (JSON)
//   --trace PATH        span trace (JSONL); the bare `--trace` switch on
//                       `train` keeps its original meaning (round-by-round
//                       TSV of the final evaluation episode)
#include <algorithm>
#include <fstream>
#include <iostream>

#include "baselines/greedy.h"
#include "baselines/single_drl.h"
#include "baselines/static_oracle.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/flags.h"
#include "core/mechanism.h"
#include "core/recorder.h"
#include "obs/metrics.h"
#include "obs/round_log.h"
#include "obs/span.h"
#include "runtime/pipeline.h"
#include "runtime/runtime.h"
#include "sysmodel/economics.h"
#include "tensor/gemm.h"

using namespace chiron;

namespace {

data::VisionTask parse_task(const std::string& name) {
  if (name == "mnist") return data::VisionTask::kMnistLike;
  if (name == "fashion") return data::VisionTask::kFashionLike;
  if (name == "cifar") return data::VisionTask::kCifarLike;
  CHIRON_CHECK_MSG(false, "unknown task '" << name
                                           << "' (mnist|fashion|cifar)");
  return data::VisionTask::kMnistLike;
}

core::EnvConfig env_from_flags(const FlagParser& flags) {
  core::EnvConfig c;
  c.num_nodes = flags.get_int("nodes", 5);
  c.budget = flags.get_double("budget", 80.0);
  c.task = parse_task(flags.get("task", "mnist"));
  c.seed = static_cast<std::uint64_t>(flags.get_int("seed", 97));
  c.data_bits_per_node = 5e8 / c.num_nodes;
  c.node_availability = flags.get_double("availability", 1.0);
  c.faults.crash_prob = flags.get_double("fault-crash", 0.0);
  c.faults.straggler_prob = flags.get_double("fault-straggler", 0.0);
  c.faults.straggler_max =
      flags.get_double("fault-straggler-factor", c.faults.straggler_max);
  c.faults.straggler_min =
      std::min(c.faults.straggler_min, c.faults.straggler_max);
  c.faults.corrupt_prob = flags.get_double("fault-corrupt", 0.0);
  c.faults.persistent_prob = flags.get_double("fault-persistent", 0.0);
  c.faults.seed = c.seed + 7919;  // own stream, decoupled from env draws
  c.round_deadline = flags.get_double("deadline", 0.0);
  c.adversary.fraction = flags.get_double("adv-fraction", 0.0);
  c.adversary.misreport_factor = flags.get_double("adv-misreport", 1.0);
  c.adversary.freeride_prob = flags.get_double("adv-freeride", 0.0);
  c.adversary.churn_prob = flags.get_double("adv-churn", 0.0);
  c.adversary.seed = c.seed + 104729;  // own stream, like faults.seed
  c.defense.reserve_price = flags.get_double("reserve-price", 0.0);
  c.defense.audit_prob = flags.get_double("audit-prob", 0.0);
  c.defense.audit_tolerance =
      flags.get_double("audit-tolerance", c.defense.audit_tolerance);
  c.defense.reputation_alpha = flags.get_double("reputation-alpha", 0.0);
  c.defense.seed = c.seed + 1299709;
  c.aggregation_shards = flags.get_int("shards", 1);
  c.max_replicas = flags.get_int("max-replicas", 0);
  if (flags.has("real")) {
    c.backend = core::BackendKind::kRealVision;
    c.samples_per_node = 128;
    c.test_samples = 256;
    c.local.epochs = 5;
    c.local.batch_size = 10;
    c.local.lr = 0.05;
  }
  return c;
}

core::ChironConfig chiron_from_flags(const FlagParser& flags, int nodes) {
  core::ChironConfig c;
  c.episodes = flags.get_int("episodes", 300);
  c.seed = static_cast<std::uint64_t>(flags.get_int("seed", 97)) + 1;
  if (nodes >= 50) {
    c.gamma = 0.99;
    c.inner_init_log_std = -2.0f;
  }
  return c;
}

// RAII scope for the CLI's observability outputs: enables the metrics
// registry / span tracing when the matching flags carry a path, opens the
// round sink, and writes everything out on destruction.
class ObsScope {
 public:
  explicit ObsScope(const FlagParser& flags)
      : metrics_out_(flags.get("metrics-out", "")),
        trace_out_(flags.get("trace", "")) {
    CHIRON_CHECK_MSG(!flags.has("metrics-out") || !metrics_out_.empty(),
                     "--metrics-out needs a path");
    if (!metrics_out_.empty()) {
      obs::MetricsRegistry::instance().reset();
      obs::MetricsRegistry::instance().set_enabled(true);
    }
    if (!trace_out_.empty()) obs::set_tracing(true);
    if (flags.has("round-log")) {
      const std::string path = flags.get("round-log");
      CHIRON_CHECK_MSG(!path.empty(), "--round-log needs a path");
      sink_ = obs::make_round_sink(path);
    }
  }

  ~ObsScope() {
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

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  obs::RoundSink* sink() const { return sink_.get(); }

 private:
  std::unique_ptr<obs::RoundSink> sink_;
  std::string metrics_out_;
  std::string trace_out_;
};

int cmd_market(const FlagParser& flags) {
  core::EnvConfig cfg = env_from_flags(flags);
  core::EdgeLearnEnv env(cfg);
  TableWriter out(std::cout);
  out.header({"node", "zeta_max_ghz", "comm_time_s", "reserve_utility",
              "saturation_payment", "floor_payment"});
  for (int i = 0; i < env.num_nodes(); ++i) {
    const auto& d = env.devices()[static_cast<std::size_t>(i)];
    const double e_com = d.comm_energy_rate * d.comm_time;
    // Minimum payment at which the node's best-response utility clears
    // its reserve (interior regime): payment = 2(μ + E_com).
    const double floor = 2.0 * (d.reserve_utility + e_com);
    out.row({std::to_string(i), TableWriter::num(d.zeta_max / 1e9, 2),
             TableWriter::num(d.comm_time, 1),
             TableWriter::num(d.reserve_utility, 4),
             TableWriter::num(env.per_node_price_cap(i) * d.zeta_max, 3),
             TableWriter::num(floor, 3)});
  }
  std::cout << "# total price cap: " << env.price_cap()
            << ", budget: " << cfg.budget << "\n";
  return 0;
}

int cmd_train(const FlagParser& flags, obs::RoundSink* sink) {
  core::EnvConfig cfg = env_from_flags(flags);
  core::EdgeLearnEnv env(cfg);
  env.set_round_sink(sink);
  core::ChironConfig cc = chiron_from_flags(flags, cfg.num_nodes);
  core::HierarchicalMechanism chiron(env, cc);
  std::cerr << "training " << cc.episodes << " episodes on " << cfg.num_nodes
            << " nodes, budget " << cfg.budget << "...\n";
  auto eps = chiron.train();
  TableWriter out(std::cout);
  out.header({"episode", "reward", "rounds", "accuracy", "efficiency"});
  const std::size_t stride = std::max<std::size_t>(1, eps.size() / 20);
  for (std::size_t i = 0; i < eps.size(); i += stride) {
    out.row({std::to_string(i), TableWriter::num(eps[i].raw_reward_sum, 1),
             std::to_string(eps[i].rounds),
             TableWriter::num(eps[i].final_accuracy, 4),
             TableWriter::num(eps[i].mean_time_efficiency, 4)});
  }
  auto s = chiron.evaluate();
  std::cout << "# evaluated policy: accuracy=" << s.final_accuracy
            << " rounds=" << s.rounds
            << " efficiency=" << s.mean_time_efficiency
            << " spent=" << s.spent << "\n";
  if (flags.has("save")) {
    chiron.save(flags.get("save"));
    std::cout << "# checkpoint written to " << flags.get("save") << "\n";
  }
  if (flags.has("trace") && flags.get("trace").empty()) {
    core::RoundTrace trace;
    Rng rng(cfg.seed + 1000);
    core::HierarchicalMechanism::Policy replay(chiron, rng);
    core::play_episode(env, replay,
                       [&trace](const core::StepResult& r) { trace.add(r); });
    std::cout << "# final-episode trace:\n";
    trace.write_tsv(std::cout);
  }
  return 0;
}

int cmd_compare(const FlagParser& flags, obs::RoundSink* sink) {
  core::EnvConfig cfg = env_from_flags(flags);
  const int episodes = flags.get_int("episodes", 300);
  TableWriter out(std::cout);
  out.header({"approach", "accuracy", "rounds", "time_efficiency", "spent"});
  auto row = [&](const std::string& name, const core::EpisodeStats& s) {
    out.row({name, TableWriter::num(s.final_accuracy, 4),
             std::to_string(s.rounds),
             TableWriter::num(s.mean_time_efficiency, 4),
             TableWriter::num(s.spent, 2)});
  };
  {
    core::EdgeLearnEnv env(cfg);
    env.set_round_sink(sink);
    core::HierarchicalMechanism m(env, chiron_from_flags(flags, cfg.num_nodes));
    m.train();
    row("chiron", m.evaluate());
  }
  {
    core::EdgeLearnEnv env(cfg);
    env.set_round_sink(sink);
    baselines::SingleDrlConfig dc;
    dc.episodes = episodes;
    baselines::SingleAgentDrlMechanism m(env, dc);
    m.train();
    row("drl_based", m.evaluate());
  }
  {
    core::EdgeLearnEnv env(cfg);
    env.set_round_sink(sink);
    baselines::GreedyConfig gc;
    gc.episodes = std::max(episodes / 4, 1);
    baselines::GreedyMechanism m(env, gc);
    m.train();
    row("greedy", m.evaluate());
  }
  {
    core::EdgeLearnEnv env(cfg);
    env.set_round_sink(sink);
    baselines::StaticOracleMechanism m(env, {});
    m.search();
    row("static_oracle", m.evaluate());
  }
  return 0;
}

int cmd_sweep(const FlagParser& flags, obs::RoundSink* sink) {
  const auto budgets =
      parse_double_list(flags.get("budgets", "40,80,120,160"), "--budgets");
  TableWriter out(std::cout);
  out.header({"budget", "approach", "accuracy", "rounds",
              "time_efficiency"});
  for (double budget : budgets) {
    std::cerr << "budget " << budget << "...\n";
    core::EnvConfig cfg = env_from_flags(flags);
    cfg.budget = budget;
    {
      core::EdgeLearnEnv env(cfg);
      env.set_round_sink(sink);
      core::HierarchicalMechanism m(env,
                                    chiron_from_flags(flags, cfg.num_nodes));
      m.train();
      auto s = m.evaluate();
      out.row({TableWriter::num(budget, 0), "chiron",
               TableWriter::num(s.final_accuracy, 4),
               std::to_string(s.rounds),
               TableWriter::num(s.mean_time_efficiency, 4)});
    }
    {
      core::EdgeLearnEnv env(cfg);
      env.set_round_sink(sink);
      baselines::GreedyConfig gc;
      gc.episodes = std::max(flags.get_int("episodes", 300) / 4, 1);
      baselines::GreedyMechanism m(env, gc);
      m.train();
      auto s = m.evaluate();
      out.row({TableWriter::num(budget, 0), "greedy",
               TableWriter::num(s.final_accuracy, 4),
               std::to_string(s.rounds),
               TableWriter::num(s.mean_time_efficiency, 4)});
    }
  }
  return 0;
}

void usage() {
  std::cerr <<
      "usage: chiron_cli <market|train|compare|sweep> [flags]\n"
      "  common flags: --nodes N --budget B --task mnist|fashion|cifar\n"
      "                --episodes E --seed S --availability P --real\n"
      "                --threads T (0 = all hardware threads)\n"
      "                --pipeline (double-buffered round pipeline; same\n"
      "                 results byte-for-byte, faster rounds — or set\n"
      "                 CHIRON_PIPELINE=1)\n"
      "  faults: --fault-crash P --fault-straggler P\n"
      "          --fault-straggler-factor F (max slowdown, default 4)\n"
      "          --fault-corrupt P --fault-persistent P --deadline SECONDS\n"
      "  adversaries: --adv-fraction P --adv-misreport F (max factor >= 1)\n"
      "               --adv-freeride P --adv-churn P\n"
      "  defenses: --reserve-price R --audit-prob P --audit-tolerance F\n"
      "            --reputation-alpha A\n"
      "  scale: --shards S (aggregation tree fan-in, real backends)\n"
      "         --max-replicas R (lightweight-node replica budget, 0 = all)\n"
      "  train:  --save PATH --trace\n"
      "  sweep:  --budgets 40,80,120\n"
      "  observability: --round-log PATH (.jsonl|.csv)\n"
      "                 --metrics-out PATH --trace PATH (span trace)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    FlagParser flags(argc, argv);
    if (flags.positional().empty()) {
      usage();
      return 2;
    }
    runtime::set_threads(threads_flag(flags));
    tensor::active_isa();  // a bad CHIRON_ISA fails here, not in a worker
    if (flags.has("pipeline")) runtime::set_pipeline(true);
    ObsScope scope(flags);
    const std::string& cmd = flags.positional().front();
    if (cmd == "market") return cmd_market(flags);
    if (cmd == "train") return cmd_train(flags, scope.sink());
    if (cmd == "compare") return cmd_compare(flags, scope.sink());
    if (cmd == "sweep") return cmd_sweep(flags, scope.sink());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
