// Engineering micro-benchmarks (google-benchmark) for the substrate the
// simulator runs on: tensor kernels, the paper's CNN forward/backward,
// one environment step, and one PPO update. Not a paper exhibit — these
// quantify where simulator wall-clock goes.
#include <benchmark/benchmark.h>

#include "core/env.h"
#include "core/mechanism.h"
#include "data/synthetic.h"
#include "fl/federation.h"
#include "harness_common.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "rl/ppo.h"
#include "runtime/runtime.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

using namespace chiron;

static void BM_MatmulSquare(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  auto a = tensor::Tensor::uniform({n, n}, rng);
  auto b = tensor::Tensor::uniform({n, n}, rng);
  for (auto _ : state) {
    auto c = tensor::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulSquare)->Arg(64)->Arg(128)->Arg(256);

// M-row products against a 602×64 weight: the N=100 exterior policy's
// first layer, which every price_one / PpoAgent::act call runs at M=1.
// M below the micro-tile's MR takes the unpacked small-M path.
static void BM_MatmulSmallM(benchmark::State& state) {
  const std::int64_t m = state.range(0), k = 602, n = 64;
  Rng rng(5);
  auto a = tensor::Tensor::uniform({m, k}, rng);
  auto b = tensor::Tensor::uniform({k, n}, rng);
  for (auto _ : state) {
    auto c = tensor::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatmulSmallM)->Arg(1)->Arg(4)->Arg(15);

static void BM_Im2col(benchmark::State& state) {
  Rng rng(2);
  auto x = tensor::Tensor::uniform({8, 10, 12, 12}, rng);
  tensor::ConvGeom g{10, 12, 12, 5, 1, 0};
  for (auto _ : state) {
    auto cols = tensor::im2col(x, g);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col);

static void BM_MnistCnnForward(benchmark::State& state) {
  Rng rng(3);
  auto net = nn::make_mnist_cnn(rng);
  auto x = tensor::Tensor::uniform({10, 1, 28, 28}, rng);
  for (auto _ : state) {
    auto y = net->forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MnistCnnForward);

static void BM_MnistCnnTrainStep(benchmark::State& state) {
  Rng rng(4);
  auto net = nn::make_mnist_cnn(rng);
  auto x = tensor::Tensor::uniform({10, 1, 28, 28}, rng);
  std::vector<int> labels{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  nn::SoftmaxCrossEntropy loss;
  for (auto _ : state) {
    net->zero_grad();
    loss.forward(net->forward(x, true), labels);
    net->backward(loss.backward());
    benchmark::DoNotOptimize(net->params().front()->grad.data());
  }
}
BENCHMARK(BM_MnistCnnTrainStep);

static void BM_EnvStepSurrogate(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  core::EnvConfig cfg;
  cfg.num_nodes = nodes;
  cfg.budget = 1e12;
  cfg.max_rounds = 1 << 30;
  cfg.backend = core::BackendKind::kSurrogate;
  core::EdgeLearnEnv env(cfg);
  env.reset();
  std::vector<double> prices(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i)
    prices[static_cast<std::size_t>(i)] = 0.5 * env.per_node_price_cap(i);
  for (auto _ : state) {
    auto res = env.step(prices);
    benchmark::DoNotOptimize(res.accuracy);
  }
}
BENCHMARK(BM_EnvStepSurrogate)->Arg(5)->Arg(100);

static void BM_PpoUpdate(benchmark::State& state) {
  rl::PpoConfig cfg;
  cfg.obs_dim = 32;
  cfg.act_dim = 5;
  cfg.hidden = 64;
  cfg.update_epochs = 6;
  Rng rng(5);
  rl::PpoAgent agent(cfg, rng);
  Rng arng(6);
  for (auto _ : state) {
    state.PauseTiming();
    rl::RolloutBuffer buf(32, 5);
    std::vector<float> obs(32, 0.1f);
    for (int i = 0; i < 20; ++i) {
      auto a = agent.act(obs, arng);
      rl::Transition t;
      t.obs = obs;
      t.action = a.action;
      t.log_prob = a.log_prob;
      t.value = a.value;
      t.reward = 0.1f;
      buf.add(std::move(t));
    }
    buf.finish(cfg.gamma, cfg.gae_lambda);
    state.ResumeTiming();
    benchmark::DoNotOptimize(agent.update(buf));
  }
}
BENCHMARK(BM_PpoUpdate);

// Wall-clock of one synchronous FedAvg round (8 nodes, paper CNN) as the
// runtime pool grows: the perf-trajectory tracker for the parallel round
// engine. Results are bit-identical across arguments (determinism
// contract); only time may change. Speedup tops out at the machine's
// physical core count.
static void BM_ParallelRound(benchmark::State& state) {
  runtime::set_threads(static_cast<int>(state.range(0)));
  Rng rng(8);
  auto train =
      data::make_vision_dataset(data::VisionTask::kMnistLike, 160, rng);
  auto test = data::make_vision_dataset(data::VisionTask::kMnistLike, 64, rng);
  fl::FederationConfig cfg;
  cfg.num_nodes = 8;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 10;
  cfg.local.lr = 0.05;
  cfg.eval_batch_size = 16;
  fl::Federation fed(
      cfg, [](Rng& r) { return nn::make_mnist_cnn(r); }, train,
      std::move(test), rng);
  const std::vector<int> everyone{0, 1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fed.run_round(everyone));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(everyone.size()));
  runtime::set_threads(0);  // restore auto for the remaining benchmarks
}
BENCHMARK(BM_ParallelRound)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Round throughput with the double-buffered round pipeline (DESIGN.md
// §5.14) off (arg 0) and on (arg 1), on an eval-heavy real-training
// market: the test-set evaluation is a large fraction of the round, so
// overlapping it with the next round's local training is where the
// pipeline's speedup lives. Byte-identity of the two modes is pinned by
// tests/core/pipeline_env_test.cpp; this benchmark tracks the wall-clock
// side of the contract (acceptance: pipelined ≥ 1.3× rounds/sec).
static void BM_PipelinedRound(benchmark::State& state) {
  const bool pipelined = state.range(0) != 0;
  runtime::set_threads(1);
  core::EnvConfig cfg;
  cfg.num_nodes = 4;
  cfg.budget = 1e12;          // never aborts: steady-state throughput
  cfg.max_rounds = 1 << 20;   // the episode outlives any iteration count
  cfg.backend = core::BackendKind::kRealBlobs;
  cfg.samples_per_node = 40;
  cfg.test_samples = 768;     // eval-heavy: eval ~ half the round
  cfg.local.epochs = 2;
  cfg.local.batch_size = 10;
  cfg.local.lr = 0.05;
  cfg.seed = 11;
  core::EdgeLearnEnv env(cfg);
  env.reset();
  std::vector<double> prices;
  for (int i = 0; i < env.num_nodes(); ++i)
    prices.push_back(env.per_node_price_cap(i) * 0.5);
  for (auto _ : state) {
    if (pipelined) {
      auto out = env.step_pipelined(prices);
      benchmark::DoNotOptimize(out.prev_valid);
    } else {
      auto r = env.step(prices);
      benchmark::DoNotOptimize(r.accuracy);
    }
  }
  if (env.has_pending()) env.drain();
  state.SetItemsProcessed(state.iterations());
  runtime::set_threads(0);
}
BENCHMARK(BM_PipelinedRound)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void BM_ChironEpisode(benchmark::State& state) {
  core::EnvConfig cfg;
  cfg.num_nodes = 5;
  cfg.budget = 60.0;
  cfg.backend = core::BackendKind::kSurrogate;
  core::EdgeLearnEnv env(cfg);
  core::ChironConfig cc;
  cc.episodes = 1;
  core::HierarchicalMechanism mech(env, cc);
  for (auto _ : state) {
    auto s = mech.run_episode(true, true);
    benchmark::DoNotOptimize(s.rounds);
  }
}
BENCHMARK(BM_ChironEpisode);

static int run(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The GEMM variant this run measured (BENCH_substrate.json context).
  benchmark::AddCustomContext("chiron_isa",
                              tensor::isa_name(tensor::active_isa()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
