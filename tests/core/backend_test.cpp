#include "core/accuracy_backend.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace chiron::core {
namespace {

std::vector<int> all_nodes(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

std::vector<double> equal_weights(int n, double w = 1.0) {
  return std::vector<double>(static_cast<std::size_t>(n), w);
}

// One round in which every upload arrives, through the backend's single
// train entry, with its (possibly deferred) evaluation completed.
double train_round(AccuracyBackend& b, const std::vector<int>& participants,
                   const std::vector<double>& weights) {
  fl::DeferredEval eval;
  bool eval_pending = false;
  const fl::TolerantRoundReport rep =
      b.train(participants, weights,
              std::vector<fl::RoundDelivery>(participants.size()), eval,
              eval_pending);
  return eval_pending ? b.finish_round_eval(eval) : rep.accuracy;
}

TEST(SurrogateBackend, StartsNearA0) {
  Rng rng(1);
  SurrogateBackend b({0.1, 0.99, 0.2, 0.0}, 5.0, rng);
  EXPECT_NEAR(b.reset(), 0.1, 1e-9);
}

TEST(SurrogateBackend, FullParticipationSaturates) {
  Rng rng(2);
  SurrogateBackend b({0.1, 0.9, 0.3, 0.0}, 5.0, rng);
  b.reset();
  double acc = 0;
  for (int k = 0; k < 60; ++k)
    acc = train_round(b, all_nodes(5), equal_weights(5));
  EXPECT_NEAR(acc, 0.9, 0.02);
}

TEST(SurrogateBackend, MonotoneWithoutNoise) {
  Rng rng(3);
  SurrogateBackend b({0.1, 0.95, 0.2, 0.0}, 5.0, rng);
  double prev = b.reset();
  for (int k = 0; k < 20; ++k) {
    const double acc = train_round(b, all_nodes(5), equal_weights(5));
    EXPECT_GE(acc, prev - 1e-12);
    prev = acc;
  }
}

TEST(SurrogateBackend, MoreParticipationLearnsFaster) {
  Rng r1(4), r2(4);
  SurrogateBackend full({0.1, 0.95, 0.2, 0.0}, 5.0, r1);
  SurrogateBackend partial({0.1, 0.95, 0.2, 0.0}, 5.0, r2);
  full.reset();
  partial.reset();
  double acc_full = 0, acc_partial = 0;
  for (int k = 0; k < 10; ++k) {
    acc_full = train_round(full, all_nodes(5), equal_weights(5));
    acc_partial = train_round(partial, {0, 1}, equal_weights(2));
  }
  EXPECT_GT(acc_full, acc_partial + 0.05);
}

TEST(SurrogateBackend, EmptyRoundIsNoop) {
  Rng rng(5);
  SurrogateBackend b({0.1, 0.95, 0.2, 0.0}, 5.0, rng);
  const double a0 = b.reset();
  EXPECT_DOUBLE_EQ(train_round(b, {}, {}), a0);
}

TEST(SurrogateBackend, DiminishingReturns) {
  Rng rng(6);
  SurrogateBackend b({0.1, 0.95, 0.25, 0.0}, 5.0, rng);
  b.reset();
  double prev = 0.1;
  double first_gain = -1, late_gain = -1;
  for (int k = 0; k < 30; ++k) {
    const double acc = train_round(b, all_nodes(5), equal_weights(5));
    const double gain = acc - prev;
    if (k == 0) first_gain = gain;
    if (k == 29) late_gain = gain;
    prev = acc;
  }
  EXPECT_GT(first_gain, 10.0 * std::max(late_gain, 1e-9));
}

TEST(SurrogateBackend, CurvesOrderedByTaskDifficulty) {
  const auto m = surrogate_curve_for(data::VisionTask::kMnistLike);
  const auto f = surrogate_curve_for(data::VisionTask::kFashionLike);
  const auto c = surrogate_curve_for(data::VisionTask::kCifarLike);
  EXPECT_GT(m.rate, f.rate);
  EXPECT_GT(f.rate, c.rate);
  EXPECT_GT(m.a_max, f.a_max);
  EXPECT_GT(f.a_max, c.a_max);
}

TEST(SurrogateBackend, ResetRestartsCurve) {
  Rng rng(7);
  SurrogateBackend b({0.1, 0.95, 0.3, 0.0}, 5.0, rng);
  b.reset();
  for (int k = 0; k < 10; ++k) train_round(b, all_nodes(5), equal_weights(5));
  EXPECT_GT(b.accuracy(), 0.5);
  EXPECT_NEAR(b.reset(), 0.1, 0.05);
}

TEST(RealBlobsBackend, TrainingImprovesAccuracy) {
  RealBackendOptions options;
  options.local.epochs = 3;
  options.local.batch_size = 16;
  options.local.lr = 0.05;
  Rng rng(8);
  RealBlobsBackend b(4, 50, 120, 8, 4, 0.6, options, rng);
  const double a0 = b.reset();
  double acc = a0;
  for (int k = 0; k < 6; ++k)
    acc = train_round(b, all_nodes(4), equal_weights(4, 50.0));
  EXPECT_GT(acc, a0 + 0.15);
}

TEST(RealBlobsBackend, ResetReinitializes) {
  RealBackendOptions options;
  options.local.epochs = 2;
  options.local.batch_size = 16;
  options.local.lr = 0.05;
  Rng rng(9);
  RealBlobsBackend b(3, 40, 80, 8, 4, 0.6, options, rng);
  b.reset();
  for (int k = 0; k < 5; ++k)
    train_round(b, all_nodes(3), equal_weights(3, 40.0));
  const double trained = b.accuracy();
  const double fresh = b.reset();
  EXPECT_LT(fresh, trained);
}

TEST(RealBlobsBackend, ScalesWithShardTreeAndReplicaBudget) {
  // DESIGN.md §5.12 smoke: the real backend wired through the streamed
  // shard-tree round with a replica budget still learns, and the scaled
  // round stays within float-fold rounding of the flat one (changing
  // --shards only re-blocks the reduction).
  RealBackendOptions options;
  options.local.epochs = 3;
  options.local.batch_size = 16;
  options.local.lr = 0.05;
  RealBackendOptions scaled = options;
  scaled.aggregation_shards = 3;
  scaled.max_replicas = 4;
  Rng rng(11);
  RealBlobsBackend flat(6, 40, 120, 8, 4, 0.6, options, rng);
  Rng rng2(11);
  RealBlobsBackend b(6, 40, 120, 8, 4, 0.6, scaled, rng2);
  const double flat0 = flat.reset();
  const double a0 = b.reset();
  EXPECT_DOUBLE_EQ(a0, flat0);  // same seed, same initial global model
  double flat_acc = flat0;
  double acc = a0;
  for (int k = 0; k < 8; ++k) {
    flat_acc = train_round(flat, all_nodes(6), equal_weights(6, 40.0));
    acc = train_round(b, all_nodes(6), equal_weights(6, 40.0));
  }
  EXPECT_GT(acc, a0 + 0.1);  // 4 trainers out of 6 still learn the blobs
  EXPECT_GT(flat_acc, flat0 + 0.1);
  EXPECT_LT(b.reset(), acc);  // reset reinitializes the scaled federation
}

TEST(SurrogateFidelity, SurrogateTracksRealTrainingShape) {
  // The validation promised in DESIGN.md §3: both backends must show a
  // monotone-saturating curve where full participation dominates partial
  // participation round-for-round.
  RealBackendOptions options;
  options.local.epochs = 3;
  options.local.batch_size = 16;
  options.local.lr = 0.05;
  Rng rng(10);
  RealBlobsBackend real(4, 50, 150, 8, 4, 0.6, options, rng);
  Rng rng2(10);
  SurrogateBackend sur({real.accuracy(), 0.95, 0.35, 0.0}, 4.0, rng2);
  sur.reset();
  real.reset();

  std::vector<double> real_curve, sur_curve;
  for (int k = 0; k < 8; ++k) {
    real_curve.push_back(
        train_round(real, all_nodes(4), equal_weights(4, 50.0)));
    sur_curve.push_back(
        train_round(sur, all_nodes(4), equal_weights(4, 1.0)));
  }
  // Both saturating: last-3 mean ≥ first-3 mean, gains shrinking.
  auto mean3 = [](const std::vector<double>& v, std::size_t at) {
    return (v[at] + v[at + 1] + v[at + 2]) / 3.0;
  };
  EXPECT_GT(mean3(real_curve, 5), mean3(real_curve, 0));
  EXPECT_GT(mean3(sur_curve, 5), mean3(sur_curve, 0));
  // Same end-state ballpark (loose: shape, not absolute numbers).
  EXPECT_NEAR(real_curve.back(), sur_curve.back(), 0.25);
}

}  // namespace
}  // namespace chiron::core
