// train_cnn — HierarchicalMechanism learning (both PPO agents,
// run_episode(learn=true)) on the kRealVision backend: the MNIST-like
// paper CNN trained by real federated SGD in a 5-node market. The op is
// one round; tensor, nn and fl do nearly all the work.
#include <algorithm>
#include <map>
#include <memory>

#include "core/actions.h"
#include "core/mechanism.h"
#include "data/synthetic.h"
#include "fl/federation.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "rl/buffer.h"
#include "rl/ppo.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {

using namespace chiron;

namespace {

constexpr int kNodes = 5;
constexpr int kSamplesPerNode = 32;
constexpr int kTestSamples = 100;  // one eval batch
constexpr int kTrainBatch = 10;
constexpr int kEvalBatch = 100;  // ParameterServer's default eval batch
constexpr int kSetupReps = 3;
constexpr int kEpisodeRounds = 20;
constexpr int kScheduleEpisodes = 64;
/// The learning utility checked for determinism is the mean over this many
/// first timed episodes, so it is a pure function of (seed, build).
constexpr int kUtilityEpisodes = 2;

core::EnvConfig cnn_env_config(std::uint64_t seed,
                               core::BackendKind backend) {
  core::EnvConfig c;
  c.num_nodes = kNodes;
  c.task = data::VisionTask::kMnistLike;
  c.backend = backend;
  c.samples_per_node = kSamplesPerNode;
  c.test_samples = kTestSamples;
  c.local.epochs = 1;
  c.local.batch_size = kTrainBatch;
  c.seed = seed;
  // Episodes end on a fixed round count, not on the budget: the initial
  // policy's price level is a function of the seed, and a budget end would
  // make episode length, and with it the share of episode-start rounds
  // (backend rebuild) and PPO updates, swing from seed to seed.
  c.budget = 1e9;
  c.max_rounds = kEpisodeRounds;
  return c;
}

core::ChironConfig cnn_mech_config(std::uint64_t seed) {
  core::ChironConfig m;
  m.episodes_per_update = 1;  // Algorithm 1: update after every episode
  m.seed = seed;
  return m;
}

std::vector<double> half_cap_prices(const core::EdgeLearnEnv& env) {
  std::vector<double> p(static_cast<std::size_t>(env.num_nodes()));
  for (int i = 0; i < env.num_nodes(); ++i)
    p[static_cast<std::size_t>(i)] = 0.5 * env.per_node_price_cap(i);
  return p;
}

struct Instance {
  std::unique_ptr<core::EdgeLearnEnv> env;
  std::unique_ptr<core::HierarchicalMechanism> mech;
  double fingerprint = 0.0;  // round-1 raw reward at fixed prices
};

/// Construction + input generation + a fixed one-round warm-up.
Instance build(std::uint64_t seed) {
  Instance in;
  in.env = std::make_unique<core::EdgeLearnEnv>(
      cnn_env_config(seed, core::BackendKind::kRealVision));
  in.mech = std::make_unique<core::HierarchicalMechanism>(
      *in.env, cnn_mech_config(seed));
  in.env->reset();
  in.fingerprint = in.env->step(half_cap_prices(*in.env)).raw_exterior_reward;
  return in;
}

/// Mean server utility per episode, Σ(λΔA − T_k), of the benchmark's
/// seeded price schedule on this workload's market with the surrogate
/// accuracy backend.
double schedule_utility(std::uint64_t seed) {
  core::EdgeLearnEnv env(cnn_env_config(seed, core::BackendKind::kSurrogate));
  const PricePool pool = make_price_pool(env, seed);
  std::vector<double> per_episode;
  for (int e = 0; e < kScheduleEpisodes; ++e) {
    env.reset();
    double u = 0.0;
    for (int k = 0; !env.done(); ++k) {
      const core::StepResult r = env.step(scheduled_prices(pool, e, k));
      if (!r.aborted) u += r.raw_exterior_reward;
    }
    per_episode.push_back(u);
  }
  return mean(per_episode);
}

/// One round as the traced replay needs it, captured from the round log.
struct RoundRec {
  int episode = 0;
  bool aborted = false;
  std::vector<int> participants;
  std::vector<double> prices;
  float reward_exterior = 0.f;
  float reward_inner = 0.f;
};

/// Times rounds (the interval between consecutive records) and runs the
/// economics checks on every record.
class RoundTimer final : public obs::RoundSink {
 public:
  RoundTimer(const core::EdgeLearnEnv& env, Result& res, bool keep)
      : env_(env), res_(res), econ_(env.budget_initial()), keep_(keep) {}

  void start_loop() { t0_ = Clock::now(); }

  void start_episode() {
    last_ = Clock::now();
    econ_.new_episode();
  }

  void write(const obs::RoundRecord& r) override {
    const auto t = Clock::now();
    log.add(seconds_between(last_, t) * 1e3, seconds_between(t0_, t));
    last_ = t;
    ++res_.attempted;
    const std::string why = econ_.after_record(env_, r);
    if (!why.empty()) res_.fail_op("train_cnn round: " + why);
    if (keep_) {
      RoundRec rec;
      rec.episode = r.episode;
      rec.aborted = r.aborted;
      for (std::size_t i = 0; i < r.node_participates.size(); ++i)
        if (r.node_participates[i]) rec.participants.push_back(static_cast<int>(i));
      rec.prices = r.node_prices;
      rec.reward_exterior = static_cast<float>(r.reward_exterior);
      rec.reward_inner = static_cast<float>(r.reward_inner);
      rounds.push_back(std::move(rec));
    }
  }

  OpLog log;
  std::vector<RoundRec> rounds;

 private:
  const core::EdgeLearnEnv& env_;
  Result& res_;
  EconomicsCheck econ_;
  bool keep_;
  Clock::time_point t0_;
  Clock::time_point last_;
};

struct TimedRun {
  double wall_s = 0.0;
  long rounds = 0;
  std::vector<double> utilities;  // raw reward sum per episode
};

/// Closed loop: whole learning episodes until `seconds` have passed, at
/// least kUtilityEpisodes episodes ran and at least `min_ops` rounds.
TimedRun timed_episodes(Instance& in, RoundTimer& timer, double seconds,
                        long min_ops) {
  TimedRun run;
  in.env->set_round_sink(&timer);
  const auto t0 = Clock::now();
  timer.start_loop();
  while (true) {
    timer.start_episode();
    const core::EpisodeStats st = in.mech->run_episode(true, true);
    run.utilities.push_back(st.raw_reward_sum);
    if (seconds_between(t0, Clock::now()) >= seconds &&
        static_cast<int>(run.utilities.size()) >= kUtilityEpisodes &&
        timer.log.ops() >= min_ops)
      break;
  }
  run.wall_s = seconds_between(t0, Clock::now());
  in.env->set_round_sink(nullptr);
  run.rounds = timer.log.ops();
  return run;
}

// ---------------------------------------------------------------- replay

/// The layers of a round, re-driven through their public functions on the
/// recorded inputs: a surrogate env of the same market for core, a
/// federation of the same shape for fl, standalone agents for rl, and a
/// model replica for the nn / tensor probes.
class Replay {
 public:
  Replay(std::uint64_t seed, Tracer& t)
      : t_(t),
        rng_(seed ^ 0x7f4a7c15u),
        surrogate_(cnn_env_config(seed, core::BackendKind::kSurrogate)),
        ext_(agent_cfg(surrogate_.exterior_state_dim(), 1), rng_),
        inner_(agent_cfg(1, kNodes), rng_),
        ext_buf_(surrogate_.exterior_state_dim(), 1),
        inner_buf_(1, kNodes) {
    surrogate_.reset();
    build_federation();
    Rng mrng(seed);
    model_ = nn::make_mnist_cnn(mrng);
    Rng drng(seed + 1);
    probe_data_ = data::make_vision_dataset(data::VisionTask::kMnistLike,
                                            kEvalBatch, drng);
  }

  void round(const RoundRec& r) {
    Scope root(t_, "train_cnn.round");
    rl::ActResult ea, ia;
    std::vector<float> s_ext;
    {
      Scope s(t_, "rl.act");
      s_ext = surrogate_.exterior_state();
      ea = ext_.act(s_ext, rng_);
    }
    const std::vector<float> s_inner = {static_cast<float>(
        core::map_total_price(ea.action[0], surrogate_.price_cap()) /
        surrogate_.price_cap())};
    {
      Scope s(t_, "rl.act");
      ia = inner_.act(s_inner, rng_);
    }
    ext_buf_.add({s_ext, ea.action, ea.log_prob, r.reward_exterior, ea.value});
    inner_buf_.add({s_inner, ia.action, ia.log_prob, r.reward_inner, ia.value});
    if (r.aborted) return;  // a discarded round logs no prices
    {
      Scope s(t_, "core.step_self");
      if (surrogate_.done()) surrogate_.reset();
      surrogate_.step(r.prices);
    }
    if (r.participants.empty()) return;
    std::vector<std::vector<float>> uploads;
    std::vector<double> sizes;
    {
      Scope s(t_, "fl.local_train");
      for (int p : r.participants) {
        Scope node(t_, "fl.local_train.node");
        uploads.push_back(fed_->node(p).local_train(fed_->server().global_params()));
        sizes.push_back(static_cast<double>(fed_->node(p).data_size()));
      }
    }
    {
      Scope s(t_, "fl.aggregate");
      fed_->server().aggregate(uploads, sizes);
    }
    {
      Scope s(t_, "fl.evaluate");
      fed_->server().evaluate();
    }
  }

  /// Episode end: the PPO updates of both agents and the backend rebuild
  /// that the next reset() performs.
  void episode_end() {
    Scope root(t_, "train_cnn.episode_end");
    {
      Scope s(t_, "rl.update");
      if (ext_buf_.size() > 0) {
        ext_buf_.finish(0.95, 0.95, false);
        ext_.update(ext_buf_);
      }
      if (inner_buf_.size() > 0) {
        inner_buf_.finish(0.0, 0.95, true);
        inner_.update(inner_buf_);
      }
      ext_buf_.clear();
      inner_buf_.clear();
    }
    {
      Scope s(t_, "core.reset");
      surrogate_.reset();
      build_federation();
    }
  }

  /// Layer-by-layer forward/backward of the paper CNN at the training
  /// batch shape, a forward at the eval batch shape, and GEMMs on the
  /// CNN's im2col and linear shapes. Returns the GEMM flop count.
  double probe() {
    Scope root(t_, "nn.probe");
    for (const int b : {kTrainBatch, kEvalBatch}) {
      std::vector<int> idx(static_cast<std::size_t>(b));
      for (int i = 0; i < b; ++i) idx[static_cast<std::size_t>(i)] = i;
      auto [x, labels] = probe_data_.gather(idx);
      const bool train = b == kTrainBatch;
      for (std::size_t i = 0; i < model_->layer_count(); ++i) {
        nn::Layer& l = model_->layer(i);
        Scope s(t_, layer_span(l, true));
        x = l.forward(x, train);
      }
      if (!train) continue;
      nn::SoftmaxCrossEntropy loss;
      loss.forward(x, labels);
      tensor::Tensor g = loss.backward();
      for (std::size_t i = model_->layer_count(); i-- > 0;) {
        nn::Layer& l = model_->layer(i);
        Scope s(t_, layer_span(l, false));
        g = l.backward(g);
      }
    }
    double flops = 0.0;
    // (M, K) x (K, N): conv1 and conv2 im2col GEMMs and both linears, at
    // the training and the eval batch.
    for (const int b : {kTrainBatch, kEvalBatch}) {
      const std::int64_t shapes[4][3] = {{b * 24 * 24, 25, 10},
                                         {b * 8 * 8, 250, 20},
                                         {b, 320, 50},
                                         {b, 50, 10}};
      for (const auto& s3 : shapes) {
        tensor::Tensor& a = gemm_operand(s3[0], s3[1]);
        tensor::Tensor& w = gemm_operand(s3[1], s3[2]);
        Scope s(t_, "tensor.gemm");
        tensor::matmul(a, w);
        flops += 2.0 * static_cast<double>(s3[0] * s3[1] * s3[2]);
      }
    }
    return flops;
  }

 private:
  static rl::PpoConfig agent_cfg(std::int64_t obs, std::int64_t act) {
    rl::PpoConfig p;
    p.obs_dim = obs;
    p.act_dim = act;
    p.hidden = 64;
    p.actor_lr = 1e-3;
    p.critic_lr = 1e-3;
    return p;
  }

  static const char* layer_span(const nn::Layer& l, bool fwd) {
    const std::string n = l.name();
    if (n == "Conv2d") return fwd ? "nn.conv_fwd" : "nn.conv_bwd";
    if (n == "MaxPool2d") return "nn.pool";
    if (n == "Linear") return "nn.linear";
    return "nn.other";
  }

  tensor::Tensor& gemm_operand(std::int64_t r, std::int64_t c) {
    const std::string key = std::to_string(r) + "x" + std::to_string(c);
    auto it = operands_.find(key);
    if (it == operands_.end()) {
      tensor::Tensor t({r, c});
      for (std::int64_t i = 0; i < r * c; ++i)
        t.data()[i] = static_cast<float>(rng_.uniform(-1.0, 1.0));
      it = operands_.emplace(key, std::move(t)).first;
    }
    return it->second;
  }

  void build_federation() {
    fl::FederationConfig fc;
    fc.num_nodes = kNodes;
    fc.local.epochs = 1;
    fc.local.batch_size = kTrainBatch;
    Rng drng = rng_.split();
    data::Dataset train = data::make_vision_dataset(
        data::VisionTask::kMnistLike, kNodes * kSamplesPerNode, drng);
    data::Dataset test = data::make_vision_dataset(
        data::VisionTask::kMnistLike, kTestSamples, drng);
    Rng frng = rng_.split();
    fed_ = std::make_unique<fl::Federation>(
        fc, [](Rng& r) { return nn::make_mnist_cnn(r); }, train,
        std::move(test), frng);
    fed_->accuracy();
  }

  Tracer& t_;
  Rng rng_;
  core::EdgeLearnEnv surrogate_;
  rl::PpoAgent ext_;
  rl::PpoAgent inner_;
  rl::RolloutBuffer ext_buf_;
  rl::RolloutBuffer inner_buf_;
  std::unique_ptr<fl::Federation> fed_;
  std::unique_ptr<nn::Sequential> model_;
  data::Dataset probe_data_;
  std::map<std::string, tensor::Tensor> operands_;
};

constexpr int kProbes = 3;  // nn / tensor probes per replay

struct ReplayRun {
  std::size_t rounds = 0;  // rounds replayed
  double seconds = 0.0;    // wall of the replay loop
  double flops = 0.0;      // GEMM flops of the probes
};

/// Replays recorded rounds in order, closing each recorded episode with
/// episode_end(), until `max_rounds` rounds ran or `budget_s` passed.
ReplayRun replay_rounds(std::uint64_t seed, Tracer& t,
                        const std::vector<RoundRec>& rounds,
                        std::size_t max_rounds, double budget_s) {
  Replay rp(seed, t);
  ReplayRun run;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < rounds.size() && i < max_rounds; ++i) {
    rp.round(rounds[i]);
    if (i < kProbes) run.flops += rp.probe();
    run.rounds = i + 1;
    const bool last = i + 1 == rounds.size() || i + 1 == max_rounds ||
                      seconds_between(t0, Clock::now()) >= budget_s;
    if (last || rounds[i + 1].episode != rounds[i].episode) rp.episode_end();
    if (last) break;
  }
  run.seconds = seconds_between(t0, Clock::now());
  return run;
}

}  // namespace

void run_train_cnn(const Options& opt, Result& res, Tracer& tracer) {
  Instance in;
  const double setup_s = timed_setup(opt, res, kSetupReps, build, in);

  if (!opt.trace) {
    RoundTimer timer(*in.env, res, false);
    const TimedRun run = timed_episodes(in, timer, opt.seconds, kMinOps);
    // The learning outcome is deterministic per seed (checked here) but
    // not steady across seeds; the reported utility is the schedule's.
    const double learned = mean(std::vector<double>(
        run.utilities.begin(), run.utilities.begin() + kUtilityEpisodes));
    const double utility = schedule_utility(opt.seed);
    for (const auto& [tag, u] : {std::pair{"learning", learned},
                                 std::pair{"schedule", utility}}) {
      const std::string why = check_utility_ledger(opt, tag, u);
      if (!why.empty()) res.fail_check("train_cnn: " + why);
    }
    const double throughput = timer.log.throughput();
    res.add("setup_s", setup_s, "s");
    res.add("throughput", throughput, "1/s");
    res.add("latency_ms_p50", windowed_quantile(timer.log.latency_ms, 0.5), "ms");
    res.add("latency_ms_p90", windowed_quantile(timer.log.latency_ms, 0.9), "ms");
    res.add("peak_rss_mb", peak_rss_mb(), "MiB");
    res.add("utility", utility, "utility");
    // A closed loop with one caller sustains at most its own throughput.
    res.add("max_rate", throughput, "1/s");
    return;
  }

  // Traced run: 40% of the time untraced (the reference op time), then the
  // recorded rounds replayed twice through the layer calls, once with
  // spans off and once on (the difference is the tracing overhead).
  RoundTimer timer(*in.env, res, true);
  const TimedRun run = timed_episodes(in, timer, opt.seconds * 0.4, 0);
  const double op_ms = run.wall_s * 1e3 / static_cast<double>(run.rounds);
  const double episodes_per_round = static_cast<double>(run.utilities.size()) /
                                    static_cast<double>(run.rounds);
  Tracer off(false);
  const ReplayRun untraced = replay_rounds(opt.seed, off, timer.rounds,
                                           timer.rounds.size(), opt.seconds * 0.25);
  const ReplayRun traced = replay_rounds(opt.seed, tracer, timer.rounds,
                                         untraced.rounds, 1e9);
  const std::string bad = tracer.check();
  if (!bad.empty()) res.fail_check("train_cnn trace: " + bad);

  auto self_ms = [&](const char* n) { return tracer.layer(n).self_ms; };
  auto calls = [&](const char* n) { return tracer.layer(n).calls; };
  auto per_call = [&](const char* n) {
    return calls(n) ? self_ms(n) / static_cast<double>(calls(n)) : 0.0;
  };
  const double n_rounds = static_cast<double>(traced.rounds);
  const double probes = static_cast<double>(calls("nn.probe"));
  // Per-round layers average over the replayed rounds; the episode-end
  // layers (PPO update, backend rebuild) are amortised at the untraced
  // run's episodes per round. fl.local_train's own self time is the loop
  // around the per-node child spans.
  const double attributed =
      (self_ms("rl.act") + self_ms("core.step_self") +
       self_ms("fl.local_train") + self_ms("fl.local_train.node") +
       self_ms("fl.aggregate") + self_ms("fl.evaluate")) / n_rounds +
      (per_call("rl.update") + per_call("core.reset")) * episodes_per_round;
  const double flops = traced.flops;
  const double traced_s = traced.seconds;
  const double untraced_s = untraced.seconds;
  res.add("fl.local_train_ms", per_call("fl.local_train.node"), "ms");
  res.add("fl.evaluate_ms", per_call("fl.evaluate"), "ms");
  res.add("fl.aggregate_ms", per_call("fl.aggregate"), "ms");
  res.add("nn.conv_fwd_ms", self_ms("nn.conv_fwd") / probes, "ms");
  res.add("nn.conv_bwd_ms", self_ms("nn.conv_bwd") / probes, "ms");
  res.add("nn.pool_ms", self_ms("nn.pool") / probes, "ms");
  res.add("nn.linear_ms", self_ms("nn.linear") / probes, "ms");
  res.add("tensor.gemm_gflops", flops / (self_ms("tensor.gemm") * 1e6), "GFLOP/s");
  res.add("rl.act_us", per_call("rl.act") * 1e3, "us");
  res.add("rl.update_ms", per_call("rl.update"), "ms");
  res.add("core.step_self_ms", per_call("core.step_self"), "ms");
  res.add("core.reset_ms", per_call("core.reset"), "ms");
  res.add("train_cnn.unattributed_ms", op_ms - attributed, "ms");
  res.add("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0,
          "%");
}

}  // namespace perfbench
