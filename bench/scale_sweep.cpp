// Large-N round throughput sweep (google-benchmark): the perf exhibit of
// the §5.12 scaling substrate, recorded into BENCH_substrate.json by
// tools/bench_substrate.sh.
//
// Two pairs of benchmarks, each reporting nodes/sec:
//   BM_EconRoundNaive / BM_EconRoundPlane — one pricing round over N
//     devices via the scalar per-node path (sysmodel::run_round, fresh
//     AoS allocation every round) vs the SoA economics plane's batched
//     column passes (allocation-free steady state).
//   BM_FedRoundFull / BM_FedRoundScaled — one federated blobs round where
//     every node materializes a replica and trains (the pre-§5.12 path
//     that capped experiments near N=100) vs the scaled round: a
//     64-replica trainer subset, sampled lightweight gradient probes, and
//     uploads streamed through a 16-shard aggregation tree. The
//     acceptance ratio (scaled ≥ 100× full at N=10k) is computed by
//     tools/bench_reduce.py from the nodes_per_sec counters.
//
// BM_FedRoundScaled/100000 is the "100k-node round end to end" check:
// economics at this scale lives in BM_EconRoundPlane/100000; this one
// runs the federated half (training, probes, shard tree, evaluation)
// over 100k participants.
//
// BM_EnvStep100k / BM_EnvStep100kAdversarial time one whole
// EdgeLearnEnv::step at N=100k on the surrogate backend: the honest
// market, and the same market under market_adv_10k's adversary, fault
// and defense knobs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "core/env.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/federation.h"
#include "nn/models.h"
#include "sysmodel/economics.h"
#include "sysmodel/plane.h"

using namespace chiron;

namespace {

// A paper-§VI-A market of N devices with the fixed 5e8-bit corpus split
// evenly, priced at half of each node's saturation price — a mid-range
// posted price where participation is partial and the reserve gate,
// clamp and interior branches all occur.
struct Market {
  std::vector<sysmodel::DeviceProfile> devices;
  std::vector<double> prices;
};

Market make_scale_market(int n) {
  Rng rng(11);
  Market m;
  m.devices = sysmodel::sample_devices(sysmodel::DevicePopulation{}, n,
                                       5e8 / static_cast<double>(n), rng);
  m.prices.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    m.prices[static_cast<std::size_t>(i)] =
        0.5 * sysmodel::saturation_price(m.devices[static_cast<std::size_t>(i)],
                                         /*local_epochs=*/5);
  }
  return m;
}

// Blobs federation sized so one full round at N=10k finishes in benchmark
// time on one core while local training still dominates a replica's round
// cost (5 epochs × 8 batches of 8 over 64 samples per node).
fl::FederationConfig scale_fed_config(int n) {
  fl::FederationConfig cfg;
  cfg.num_nodes = n;
  cfg.local.epochs = 5;
  cfg.local.batch_size = 8;
  cfg.local.lr = 0.05;
  cfg.eval_batch_size = 64;
  return cfg;
}

std::unique_ptr<fl::Federation> make_scale_federation(
    fl::FederationConfig cfg) {
  constexpr int kSamplesPerNode = 64;
  constexpr std::int64_t kDims = 8;
  constexpr std::int64_t kClasses = 4;
  Rng rng(23);
  data::Dataset train = data::make_gaussian_blobs(
      static_cast<std::int64_t>(cfg.num_nodes) * kSamplesPerNode, kDims,
      kClasses, 0.9, rng);
  data::Dataset test =
      data::make_gaussian_blobs(128, kDims, kClasses, 0.9, rng);
  const fl::ModelFactory factory = [](Rng& r) {
    return nn::make_mlp_classifier(kDims, 16, kClasses, r);
  };
  auto shards = data::iid_partition(train, cfg.num_nodes, rng);
  return std::make_unique<fl::Federation>(cfg, factory, std::move(shards),
                                          std::move(test), rng);
}

void set_nodes_per_sec(benchmark::State& state, std::int64_t nodes) {
  const double total =
      static_cast<double>(state.iterations()) * static_cast<double>(nodes);
  state.counters["nodes_per_sec"] =
      benchmark::Counter(total, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * nodes);
}

}  // namespace

// The pre-§5.12 economics path: per-node best_response into a freshly
// allocated AoS vector, then the scalar aggregation walk.
static void BM_EconRoundNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Market m = make_scale_market(n);
  for (auto _ : state) {
    auto out = sysmodel::run_round(m.devices, m.prices, /*local_epochs=*/5);
    benchmark::DoNotOptimize(out.time_efficiency);
  }
  set_nodes_per_sec(state, n);
}
BENCHMARK(BM_EconRoundNaive)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// The SoA plane: batched best response + fixed-chunk aggregation over a
// reused DecisionBatch — the allocation-free steady state of env.step.
static void BM_EconRoundPlane(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Market m = make_scale_market(n);
  const sysmodel::EconomicsPlane plane(m.devices, /*local_epochs=*/5);
  sysmodel::DecisionBatch batch;
  for (auto _ : state) {
    plane.best_response_batch(m.prices, batch);
    auto agg = plane.aggregate_round(batch);
    benchmark::DoNotOptimize(agg.time_efficiency);
  }
  set_nodes_per_sec(state, n);
}
BENCHMARK(BM_EconRoundPlane)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Every node holds a replica and locally trains — the flat path whose
// O(N · local_train) round cost is what capped N near 100.
static void BM_FedRoundFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto fed = make_scale_federation(scale_fed_config(n));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  std::iota(everyone.begin(), everyone.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fed->run_round(everyone));
  }
  set_nodes_per_sec(state, n);
}
BENCHMARK(BM_FedRoundFull)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The §5.12 scaled round: 64 trainer replicas, lightweight probes capped
// at the probe_sample default, uploads streamed through 16 shards.
static void BM_FedRoundScaled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  fl::FederationConfig cfg = scale_fed_config(n);
  cfg.max_replicas = 64;
  cfg.aggregation_shards = 16;
  auto fed = make_scale_federation(std::move(cfg));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  std::iota(everyone.begin(), everyone.end(), 0);
  const std::vector<fl::RoundDelivery> delivery(everyone.size());
  for (auto _ : state) {
    auto rep = fed->run_round_tolerant(everyone, delivery);
    benchmark::DoNotOptimize(rep.accuracy);
  }
  set_nodes_per_sec(state, n);
}
BENCHMARK(BM_FedRoundScaled)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

namespace {

core::EnvConfig env_step_config(int n) {
  core::EnvConfig cfg;
  cfg.num_nodes = n;
  cfg.budget = 1e12;
  cfg.max_rounds = 1 << 30;
  cfg.backend = core::BackendKind::kSurrogate;
  cfg.data_bits_per_node = 5e8 / static_cast<double>(n);
  return cfg;
}

// Steps `cfg`'s env at half of every node's saturation price.
void run_env_steps(benchmark::State& state, const core::EnvConfig& cfg) {
  core::EdgeLearnEnv env(cfg);
  env.reset();
  std::vector<double> prices(static_cast<std::size_t>(cfg.num_nodes));
  for (int i = 0; i < cfg.num_nodes; ++i)
    prices[static_cast<std::size_t>(i)] = 0.5 * env.per_node_price_cap(i);
  for (auto _ : state) {
    auto res = env.step(prices);
    benchmark::DoNotOptimize(res.accuracy);
  }
  set_nodes_per_sec(state, cfg.num_nodes);
}

}  // namespace

// Full environment step at 100k nodes (surrogate backend): economics
// plane, budget/payment accounting, history ring and state assembly —
// the end-to-end per-round cost a mechanism run pays at this scale.
static void BM_EnvStep100k(benchmark::State& state) {
  run_env_steps(state, env_step_config(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_EnvStep100k)->Arg(100000)->Unit(benchmark::kMillisecond);

// The same step with the adversary, fault and defense knobs of
// perfbench's market_adv_10k (misreport, free-ride and churn; crashes,
// stragglers, outages and a round deadline; screening, audits and
// reputation): the adversarial round at N=100k, schedules included.
static void BM_EnvStep100kAdversarial(benchmark::State& state) {
  core::EnvConfig cfg = env_step_config(static_cast<int>(state.range(0)));
  const std::uint64_t seed = cfg.seed;
  cfg.adversary.fraction = 0.2;
  cfg.adversary.misreport_factor = 1.6;
  cfg.adversary.freeride_prob = 0.2;
  cfg.adversary.churn_prob = 0.02;
  cfg.adversary.seed = seed ^ 0xad5eedu;
  cfg.faults.crash_prob = 0.05;
  cfg.faults.straggler_prob = 0.1;
  cfg.faults.persistent_prob = 0.1;
  cfg.faults.seed = seed ^ 0xfa17u;
  cfg.round_deadline = 60.0;
  cfg.defense.reserve_price = 0.085;
  cfg.defense.audit_prob = 0.3;
  cfg.defense.audit_tolerance = 1.25;
  cfg.defense.reputation_alpha = 0.2;
  cfg.defense.seed = seed ^ 0xa0d17u;
  run_env_steps(state, cfg);
}
BENCHMARK(BM_EnvStep100kAdversarial)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
