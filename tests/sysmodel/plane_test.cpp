// Property tests of the SoA economics plane (DESIGN.md §5.12): batched
// passes must be bit-for-bit equal to the scalar per-node path — across
// declined/interior/clamped/saturated regimes and at any thread count —
// and the fixed-chunk reduction schedule must not depend on threads.
#include "sysmodel/plane.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "runtime/runtime.h"
#include "sysmodel/economics.h"

namespace chiron::sysmodel {
namespace {

constexpr int kSigma = 5;

// A market engineered so every best-response regime occurs: declined
// (zero and sub-floor prices), interior, clamped at zeta_min (negative
// reserve + tiny price) and saturated at zeta_max (price far above
// saturation).
struct TestMarket {
  std::vector<DeviceProfile> devices;
  std::vector<double> prices;
};

TestMarket make_market(int n, std::uint64_t seed) {
  Rng rng(seed);
  TestMarket m;
  m.devices = sample_devices(DevicePopulation{}, n,
                             5e8 / static_cast<double>(n), rng);
  m.prices.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    const double sat = saturation_price(m.devices[s], kSigma);
    switch (i % 5) {
      case 0:  m.prices[s] = 0.0; break;                     // declined
      case 1:  m.prices[s] = 1e-6 * sat; break;              // sub-floor
      case 2:  m.prices[s] = rng.uniform(0.3, 0.9) * sat; break;
      case 3:                                                // zeta_min clamp
        m.devices[s].reserve_utility = -1e9;
        m.prices[s] = 1e-4 * sat;
        break;
      default: m.prices[s] = rng.uniform(2.0, 10.0) * sat; break;  // ζ_max
    }
  }
  return m;
}

void expect_node_eq(const NodeDecision& a, const NodeDecision& b, int i) {
  EXPECT_EQ(a.participates, b.participates) << "node " << i;
  EXPECT_EQ(a.price, b.price) << "node " << i;
  EXPECT_EQ(a.zeta, b.zeta) << "node " << i;
  EXPECT_EQ(a.compute_time, b.compute_time) << "node " << i;
  EXPECT_EQ(a.comm_time, b.comm_time) << "node " << i;
  EXPECT_EQ(a.total_time, b.total_time) << "node " << i;
  EXPECT_EQ(a.compute_energy, b.compute_energy) << "node " << i;
  EXPECT_EQ(a.comm_energy, b.comm_energy) << "node " << i;
  EXPECT_EQ(a.utility, b.utility) << "node " << i;
  EXPECT_EQ(a.payment, b.payment) << "node " << i;
}

TEST(EconomicsPlane, BestResponseBatchBitEqualsScalar) {
  const TestMarket m = make_market(257, 31);
  const EconomicsPlane plane(m.devices, kSigma);
  DecisionBatch batch;
  plane.best_response_batch(m.prices, batch);
  ASSERT_EQ(batch.size(), m.devices.size());
  for (std::size_t i = 0; i < m.devices.size(); ++i) {
    const NodeDecision want =
        best_response(m.devices[i], m.prices[i], kSigma);
    expect_node_eq(batch.node(i), want, static_cast<int>(i));
  }
}

TEST(EconomicsPlane, BestResponseBatchThreadInvariant) {
  const TestMarket m = make_market(1024, 7);
  const EconomicsPlane plane(m.devices, kSigma);
  DecisionBatch t1;
  DecisionBatch t8;
  runtime::set_threads(1);
  plane.best_response_batch(m.prices, t1);
  runtime::set_threads(8);
  plane.best_response_batch(m.prices, t8);
  runtime::set_threads(0);
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i)
    expect_node_eq(t1.node(i), t8.node(i), static_cast<int>(i));
}

TEST(EconomicsPlane, UtilityBatchBitEqualsScalar) {
  const TestMarket m = make_market(100, 3);
  const EconomicsPlane plane(m.devices, kSigma);
  std::vector<double> zetas(m.devices.size());
  Rng rng(5);
  for (std::size_t i = 0; i < zetas.size(); ++i)
    zetas[i] = rng.uniform(m.devices[i].zeta_min, m.devices[i].zeta_max);
  std::vector<double> utilities;
  plane.utility_batch(m.prices, zetas, utilities);
  ASSERT_EQ(utilities.size(), m.devices.size());
  for (std::size_t i = 0; i < utilities.size(); ++i) {
    EXPECT_EQ(utilities[i],
              utility_at(m.devices[i], m.prices[i], zetas[i], kSigma))
        << "node " << i;
  }
}

TEST(EconomicsPlane, SingleChunkAggregatesBitEqualScalar) {
  // N below the default chunk reduces as one chunk, which replays the
  // scalar aggregation op for op — the zero-knob byte-identity backbone.
  const TestMarket m = make_market(300, 13);
  ASSERT_LE(m.devices.size(), EconomicsPlane::kDefaultChunk);
  const EconomicsPlane plane(m.devices, kSigma);
  DecisionBatch batch;
  plane.best_response_batch(m.prices, batch);
  const RoundAggregates agg = plane.aggregate_round(batch);
  const RoundOutcome want = run_round(m.devices, m.prices, kSigma);
  EXPECT_EQ(agg.participants, want.participants);
  EXPECT_EQ(agg.round_time, want.round_time);
  EXPECT_EQ(agg.total_payment, want.total_payment);
  EXPECT_EQ(agg.total_energy, want.total_energy);
  EXPECT_EQ(agg.idle_time, want.idle_time);
  EXPECT_EQ(agg.time_efficiency, want.time_efficiency);
}

TEST(EconomicsPlane, RunRoundBitEqualsScalarRunRound) {
  const TestMarket m = make_market(500, 17);
  const EconomicsPlane plane(m.devices, kSigma);
  DecisionBatch batch;
  const RoundOutcome got = plane.run_round(m.prices, batch);
  const RoundOutcome want = run_round(m.devices, m.prices, kSigma);
  EXPECT_EQ(got.participants, want.participants);
  EXPECT_EQ(got.round_time, want.round_time);
  EXPECT_EQ(got.total_payment, want.total_payment);
  EXPECT_EQ(got.total_energy, want.total_energy);
  EXPECT_EQ(got.idle_time, want.idle_time);
  EXPECT_EQ(got.time_efficiency, want.time_efficiency);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < got.nodes.size(); ++i)
    expect_node_eq(got.nodes[i], want.nodes[i], static_cast<int>(i));
}

TEST(EconomicsPlane, MultiChunkReductionIsThreadInvariant) {
  // A tiny chunk forces the multi-chunk fold on a small population; the
  // schedule is (N, chunk)-determined, so threads must not change a bit.
  const TestMarket m = make_market(203, 23);
  const EconomicsPlane plane(m.devices, kSigma, /*chunk=*/16);
  DecisionBatch batch;
  plane.best_response_batch(m.prices, batch);
  runtime::set_threads(1);
  const RoundAggregates a1 = plane.aggregate_round(batch);
  runtime::set_threads(8);
  const RoundAggregates a8 = plane.aggregate_round(batch);
  runtime::set_threads(0);
  EXPECT_EQ(a1.participants, a8.participants);
  EXPECT_EQ(a1.round_time, a8.round_time);
  EXPECT_EQ(a1.total_payment, a8.total_payment);
  EXPECT_EQ(a1.total_energy, a8.total_energy);
  EXPECT_EQ(a1.idle_time, a8.idle_time);
  EXPECT_EQ(a1.time_efficiency, a8.time_efficiency);
}

TEST(EconomicsPlane, MultiChunkReductionMatchesScalarClosely) {
  // Re-chunking only reassociates the sums; values stay within float-fold
  // noise of the scalar single-pass aggregation.
  const TestMarket m = make_market(203, 23);
  const EconomicsPlane plane(m.devices, kSigma, /*chunk=*/16);
  DecisionBatch batch;
  plane.best_response_batch(m.prices, batch);
  const RoundAggregates agg = plane.aggregate_round(batch);
  const RoundOutcome want = run_round(m.devices, m.prices, kSigma);
  EXPECT_EQ(agg.participants, want.participants);
  EXPECT_EQ(agg.round_time, want.round_time);  // max is order-free
  EXPECT_NEAR(agg.total_payment, want.total_payment,
              1e-9 * std::abs(want.total_payment) + 1e-15);
  EXPECT_NEAR(agg.total_energy, want.total_energy,
              1e-9 * std::abs(want.total_energy) + 1e-15);
  EXPECT_NEAR(agg.idle_time, want.idle_time,
              1e-9 * std::abs(want.idle_time) + 1e-15);
  EXPECT_NEAR(agg.time_efficiency, want.time_efficiency, 1e-12);
}

TEST(EconomicsPlane, AllDeclinedRoundHasZeroAggregates) {
  TestMarket m = make_market(64, 41);
  for (double& p : m.prices) p = 0.0;
  const EconomicsPlane plane(m.devices, kSigma);
  DecisionBatch batch;
  plane.best_response_batch(m.prices, batch);
  const RoundAggregates agg = plane.aggregate_round(batch);
  EXPECT_EQ(agg.participants, 0);
  EXPECT_EQ(agg.round_time, 0.0);
  EXPECT_EQ(agg.total_payment, 0.0);
  EXPECT_EQ(agg.idle_time, 0.0);
  EXPECT_EQ(agg.time_efficiency, 0.0);
}

TEST(EconomicsPlane, RebuildTracksMutatedDevices) {
  // Churn resamples profiles; after rebuild() the plane must price the
  // new market exactly as the scalar path does.
  TestMarket m = make_market(50, 53);
  EconomicsPlane plane(m.devices, kSigma);
  Rng rng(59);
  for (auto& d : m.devices) {
    d.zeta_max = rng.uniform(1.0e9, 2.0e9);
    d.comm_time = rng.uniform(10.0, 20.0);
    d.reserve_utility = rng.uniform(0.005, 0.02);
  }
  plane.rebuild(m.devices);
  DecisionBatch batch;
  plane.best_response_batch(m.prices, batch);
  for (std::size_t i = 0; i < m.devices.size(); ++i) {
    expect_node_eq(batch.node(i),
                   best_response(m.devices[i], m.prices[i], kSigma),
                   static_cast<int>(i));
  }
}

TEST(EconomicsPlane, RowUpdatesMatchScalar) {
  // The env refreshes only the rows of rejoined nodes (set_device) and
  // patches misreporters' decisions into the batch (DecisionBatch::set).
  TestMarket m = make_market(50, 61);
  EconomicsPlane plane(m.devices, kSigma);
  Rng rng(67);
  for (std::size_t i = 0; i < m.devices.size(); i += 7) {
    m.devices[i].zeta_max = rng.uniform(1.0e9, 2.0e9);
    m.devices[i].comm_time = rng.uniform(10.0, 20.0);
    plane.set_device(i, m.devices[i]);
  }
  DecisionBatch batch;
  plane.best_response_batch(m.prices, batch);
  for (std::size_t i = 0; i < m.devices.size(); ++i) {
    expect_node_eq(batch.node(i),
                   best_response(m.devices[i], m.prices[i], kSigma),
                   static_cast<int>(i));
  }
  const NodeDecision patched =
      misreported_response(m.devices[2], m.prices[2], kSigma, 1.6);
  batch.set(2, patched);
  expect_node_eq(batch.node(2), patched, 2);
}

TEST(EconomicsPlane, InPlaceBestResponseBitEqualsVectorOverload) {
  // The env writes the effective prices straight into the batch's price
  // column and runs the market on it in place.
  const TestMarket m = make_market(300, 71);
  const EconomicsPlane plane(m.devices, kSigma);
  DecisionBatch want;
  plane.best_response_batch(m.prices, want);
  DecisionBatch got;
  got.resize(m.prices.size());
  for (std::size_t i = 0; i < m.prices.size(); ++i) got.price[i] = m.prices[i];
  plane.best_response_batch(got);
  for (std::size_t i = 0; i < m.prices.size(); ++i)
    expect_node_eq(got.node(i), want.node(i), static_cast<int>(i));
  DecisionBatch wrong_size;
  wrong_size.resize(3);
  EXPECT_THROW(plane.best_response_batch(wrong_size), chiron::InvariantError);
}

TEST(EconomicsPlane, DecisionViewReadsTheSharedBatchByValue) {
  const TestMarket m = make_market(40, 73);
  const EconomicsPlane plane(m.devices, kSigma);
  auto batch = std::make_shared<DecisionBatch>();
  plane.best_response_batch(m.prices, *batch);
  const DecisionView view(batch);
  ASSERT_EQ(view.size(), batch->size());
  EXPECT_FALSE(view.empty());
  std::size_t i = 0;
  for (const NodeDecision& nd : view) {
    expect_node_eq(nd, batch->node(i), static_cast<int>(i));
    expect_node_eq(view[i], batch->node(i), static_cast<int>(i));
    ++i;
  }
  EXPECT_EQ(i, batch->size());
  // A copy shares the columns instead of copying them.
  const DecisionView copy = view;
  EXPECT_EQ(copy.columns().price.data(), batch->price.data());
  EXPECT_EQ(batch.use_count(), 3);

  const DecisionView none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.begin() == none.end());
  EXPECT_EQ(none.columns().size(), 0u);
}

// Realizes a batch in place the way settle does — stretched times for
// some participants, zeroed payments for the unpaid — and returns the
// matching scalar inputs of realize_round.
struct Realized {
  std::vector<double> times;
  std::vector<bool> paid;
};

Realized realize_in_place(DecisionBatch& batch) {
  Realized r;
  r.times.assign(batch.size(), 0.0);
  r.paid.assign(batch.size(), false);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch.participates[i]) continue;
    if (i % 3 == 0) batch.total_time[i] *= 1.7;  // straggler
    r.times[i] = batch.total_time[i];
    r.paid[i] = i % 4 != 1;  // every fourth participant crashed
    if (!r.paid[i]) batch.payment[i] = 0.0;
  }
  return r;
}

TEST(EconomicsPlane, RealizedBatchAggregatesBitEqualRealizeRound) {
  // Within one chunk, re-aggregating the realized columns replays
  // realize_round op for op: a zeroed payment adds +0.0 to a
  // non-negative sum, and energy and participation carry over.
  const TestMarket m = make_market(513, 79);
  const EconomicsPlane plane(m.devices, kSigma);
  DecisionBatch batch;
  const RoundOutcome promised = plane.run_round(m.prices, batch);
  const Realized r = realize_in_place(batch);
  const RoundAggregates got = plane.aggregate_round(batch);
  const RoundOutcome want = realize_round(promised, r.times, r.paid);
  ASSERT_GT(want.participants, 0);
  ASSERT_LT(want.total_payment, promised.total_payment);
  EXPECT_EQ(got.participants, want.participants);
  EXPECT_EQ(got.round_time, want.round_time);
  EXPECT_EQ(got.total_payment, want.total_payment);
  EXPECT_EQ(got.total_energy, want.total_energy);
  EXPECT_EQ(got.idle_time, want.idle_time);
  EXPECT_EQ(got.time_efficiency, want.time_efficiency);
}

TEST(EconomicsPlane, RealizedMultiChunkAggregatesMatchRealizeRoundClosely) {
  // Above one chunk the realized round sums in the plane's chunk order,
  // the same order as the promised market — a reassociation of
  // realize_round's serial sums.
  const TestMarket m = make_market(203, 83);
  const EconomicsPlane plane(m.devices, kSigma, /*chunk=*/16);
  DecisionBatch batch;
  const RoundOutcome promised = plane.run_round(m.prices, batch);
  const Realized r = realize_in_place(batch);
  const RoundAggregates got = plane.aggregate_round(batch);
  const RoundOutcome want = realize_round(promised, r.times, r.paid);
  EXPECT_EQ(got.participants, want.participants);
  EXPECT_EQ(got.round_time, want.round_time);
  EXPECT_NEAR(got.total_payment, want.total_payment,
              1e-9 * std::abs(want.total_payment) + 1e-15);
  EXPECT_NEAR(got.idle_time, want.idle_time,
              1e-9 * std::abs(want.idle_time) + 1e-15);
  EXPECT_NEAR(got.time_efficiency, want.time_efficiency, 1e-12);
}

}  // namespace
}  // namespace chiron::sysmodel
