// Accuracy backends: how the environment obtains A(ω_k) after a round.
//
// kRealVision / kRealBlobs run actual federated SGD through the fl stack —
// the paper's position ("only through real model training can we precisely
// obtain the correct model accuracy"). kSurrogate advances a calibrated
// saturating learning curve; it exists because the budget-sweep figures
// retrain a DRL mechanism dozens of times, which real training cannot do
// on this machine's wall-clock (DESIGN.md §3). The surrogate is validated
// against the real backend in tests/core/surrogate_fidelity_test.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "fl/federation.h"

namespace chiron::core {

class AccuracyBackend {
 public:
  virtual ~AccuracyBackend() = default;

  /// Reinitializes the model; returns the accuracy of the fresh model.
  virtual double reset() = 0;

  /// Runs one aggregation round over `participants` (node ids, with
  /// `weights` = their aggregation weights D_i). `delivery` (aligned with
  /// participants) says which uploads crash, arrive late, free-ride or
  /// are corrupted; the returned per-participant statuses are the ground
  /// truth for pay-on-delivery.
  ///
  /// The test-set evaluation may be deferred (DESIGN.md §5.14). `eval`
  /// is the CALLER-owned job token for this round: the post-aggregate
  /// parameter snapshot lands there, so a stage thread finishing round
  /// k's evaluation never races the main thread snapshotting round
  /// k+1's. On return `eval_pending` says whether the report's accuracy
  /// is already final (false — the analytic surrogate) or a
  /// finish_round_eval(eval) call must complete it (true — the
  /// real-training backends, always). While an evaluation is pending the
  /// backend's accuracy() must not be called: finish_round_eval may run
  /// on a stage thread.
  virtual fl::TolerantRoundReport train(
      const std::vector<int>& participants,
      const std::vector<double>& weights,
      const std::vector<fl::RoundDelivery>& delivery, fl::DeferredEval& eval,
      bool& eval_pending) = 0;

  /// Completes the evaluation deferred into `eval` by train() and
  /// returns the post-round accuracy. Callable from a pipeline stage
  /// thread; the default just reads accuracy().
  virtual double finish_round_eval(fl::DeferredEval& eval);

  virtual double accuracy() const = 0;
};

/// Parameters of the saturating surrogate learning curve
///   A ← A + rate · w_part · (a_max − A) + noise,
/// where w_part is the participating data fraction of the round.
struct SurrogateCurve {
  double a0 = 0.10;      // fresh-model accuracy (10 classes)
  double a_max = 0.99;
  double rate = 0.20;
  double noise = 0.004;
};

/// Task-calibrated curves (fit to our real training runs; see DESIGN.md).
SurrogateCurve surrogate_curve_for(data::VisionTask task);

class SurrogateBackend final : public AccuracyBackend {
 public:
  /// `total_weight` is Σ D_i across all nodes (to normalize participation).
  SurrogateBackend(SurrogateCurve curve, double total_weight, Rng rng);

  double reset() override;
  /// Models an always-validating server analytically: crashed, late and
  /// corrupt uploads are dropped, a free-ride is delivered with zero data
  /// weight (a stale model adds nothing), and the survivors' weight
  /// advances the curve. Never defers its evaluation.
  fl::TolerantRoundReport train(const std::vector<int>& participants,
                                const std::vector<double>& weights,
                                const std::vector<fl::RoundDelivery>& delivery,
                                fl::DeferredEval& eval,
                                bool& eval_pending) override;
  double accuracy() const override { return accuracy_; }

 private:
  SurrogateCurve curve_;
  double total_weight_;
  Rng rng_;
  double accuracy_ = 0.0;
};

/// Extra knobs shared by the real-training backends.
struct RealBackendOptions {
  fl::LocalTrainConfig local;
  /// Label-skewed shards via Dirichlet(alpha) instead of IID.
  bool noniid = false;
  double dirichlet_alpha = 0.5;
  fl::Aggregator aggregator = fl::Aggregator::kFedAvg;
  double server_momentum = 0.9;
  /// Upload acceptance policy of the parameter server (tolerant rounds).
  fl::UploadValidation validation;
  /// Two-tier aggregation tree fan-in (fl::FederationConfig); 1 = flat.
  int aggregation_shards = 1;
  /// Replica budget for lightweight-node mode; 0 = all nodes materialize.
  int max_replicas = 0;
  /// Per-round lightweight probe cap and rotation seed
  /// (fl::FederationConfig::probe_sample / probe_seed).
  int probe_sample = 64;
  std::uint64_t probe_seed = 0;
};

/// Shared body of the real-training backends: one fl::Federation, rebuilt
/// from fresh data draws on reset(). Rounds always defer their
/// evaluation, so a zero-survivor round reads the accuracy cache only in
/// finish_round_eval.
class FederatedBackend : public AccuracyBackend {
 public:
  double reset() override;
  fl::TolerantRoundReport train(const std::vector<int>& participants,
                                const std::vector<double>& weights,
                                const std::vector<fl::RoundDelivery>& delivery,
                                fl::DeferredEval& eval,
                                bool& eval_pending) override;
  double finish_round_eval(fl::DeferredEval& eval) override;
  double accuracy() const override { return accuracy_; }

 protected:
  FederatedBackend(int num_nodes, RealBackendOptions options, Rng rng);

  /// Draws this episode's train and test sets from `rng`.
  virtual std::pair<data::Dataset, data::Dataset> make_data(Rng& rng) = 0;
  virtual fl::ModelFactory model_factory() const = 0;

  /// Builds a fresh federation (data, shards, model) and evaluates it.
  /// Called by the concrete constructors and by reset().
  void rebuild();

  int num_nodes_;

 private:
  RealBackendOptions options_;
  Rng rng_;
  std::unique_ptr<fl::Federation> federation_;
  double accuracy_ = 0.0;
};

/// Real federated training on one of the synthetic vision tasks.
class RealVisionBackend final : public FederatedBackend {
 public:
  RealVisionBackend(data::VisionTask task, int num_nodes,
                    int samples_per_node, int test_samples,
                    RealBackendOptions options, Rng rng);

 private:
  std::pair<data::Dataset, data::Dataset> make_data(Rng& rng) override;
  fl::ModelFactory model_factory() const override;

  data::VisionTask task_;
  int samples_per_node_;
  int test_samples_;
};

/// Real federated training on Gaussian blobs with an MLP — the fast
/// real-training mode used by tests and the convergence example.
class RealBlobsBackend final : public FederatedBackend {
 public:
  RealBlobsBackend(int num_nodes, int samples_per_node, int test_samples,
                   int dims, int classes, double noise,
                   RealBackendOptions options, Rng rng);

 private:
  std::pair<data::Dataset, data::Dataset> make_data(Rng& rng) override;
  fl::ModelFactory model_factory() const override;

  int samples_per_node_;
  int test_samples_;
  int dims_;
  int classes_;
  double noise_;
};

}  // namespace chiron::core
