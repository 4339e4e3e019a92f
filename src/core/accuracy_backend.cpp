#include "core/accuracy_backend.h"

#include <algorithm>

#include "common/error.h"
#include "data/partition.h"
#include "nn/models.h"

namespace chiron::core {

double AccuracyBackend::finish_round_eval(fl::DeferredEval& eval) {
  (void)eval;
  return accuracy();
}

SurrogateCurve surrogate_curve_for(data::VisionTask task) {
  // Rates/ceilings calibrated to the real-training backends on the
  // synthetic vision tasks: MNIST-like saturates fast and high, the
  // CIFAR-like task is slow with a lower ceiling (paper §VI-B: "processing
  // the same number of samples requires more computing resources").
  switch (task) {
    case data::VisionTask::kMnistLike:
      return {0.10, 0.985, 0.15, 0.004};
    case data::VisionTask::kFashionLike:
      return {0.10, 0.92, 0.08, 0.005};
    case data::VisionTask::kCifarLike:
      return {0.10, 0.74, 0.04, 0.006};
  }
  CHIRON_CHECK_MSG(false, "unknown task");
  return {};
}

SurrogateBackend::SurrogateBackend(SurrogateCurve curve, double total_weight,
                                   Rng rng)
    : curve_(curve), total_weight_(total_weight), rng_(rng) {
  CHIRON_CHECK(total_weight_ > 0.0);
  CHIRON_CHECK(curve_.a0 >= 0.0 && curve_.a_max <= 1.0 &&
               curve_.a0 < curve_.a_max);
  CHIRON_CHECK(curve_.rate > 0.0);
  accuracy_ = curve_.a0;
}

double SurrogateBackend::reset() {
  accuracy_ = curve_.a0 + rng_.normal(0.0, curve_.noise);
  accuracy_ = std::clamp(accuracy_, 0.0, 1.0);
  return accuracy_;
}

fl::TolerantRoundReport SurrogateBackend::train(
    const std::vector<int>& participants, const std::vector<double>& weights,
    const std::vector<fl::RoundDelivery>& delivery, fl::DeferredEval& eval,
    bool& eval_pending) {
  CHIRON_CHECK(participants.size() == weights.size());
  CHIRON_CHECK(participants.size() == delivery.size());
  // The accuracy is a by-product of the round itself: nothing to defer.
  eval.pending = false;
  eval_pending = false;
  fl::TolerantRoundReport rep;
  rep.status.resize(participants.size());
  double part_weight = 0.0;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (delivery[i].crash) {
      rep.status[i] = fl::DeliveryStatus::kCrashed;
      ++rep.crashed;
    } else if (delivery[i].late) {
      rep.status[i] = fl::DeliveryStatus::kLate;
      ++rep.late;
    } else if (delivery[i].corruption != faults::Corruption::kNone) {
      // An always-on validator catches both corruption modes by
      // construction (see faults::corrupt_upload) — matching what the
      // real backends' parameter server does.
      rep.status[i] = fl::DeliveryStatus::kRejected;
      ++rep.rejected;
    } else {
      rep.status[i] = fl::DeliveryStatus::kDelivered;
      ++rep.delivered;
      // A free-ride upload is accepted (it passes validation in the real
      // stack) but is a copy of the global model, so analytically it adds
      // zero participating data to the round.
      const double w = delivery[i].freeride ? 0.0 : weights[i];
      CHIRON_CHECK(w >= 0.0);
      part_weight += w;
    }
  }
  if (rep.delivered > 0) {
    const double w = std::min(part_weight / total_weight_, 1.0);
    const double gain = curve_.rate * w * (curve_.a_max - accuracy_);
    accuracy_ = std::clamp(
        accuracy_ + gain + rng_.normal(0.0, curve_.noise), 0.0, curve_.a_max);
    rep.aggregated = true;
  }
  rep.accuracy = accuracy_;
  return rep;
}

// ---------------------------------------------------------------------------

FederatedBackend::FederatedBackend(int num_nodes, RealBackendOptions options,
                                   Rng rng)
    : num_nodes_(num_nodes), options_(options), rng_(rng) {}

void FederatedBackend::rebuild() {
  Rng data_rng = rng_.split();
  auto [train_set, test_set] = make_data(data_rng);
  fl::FederationConfig cfg;
  cfg.num_nodes = num_nodes_;
  cfg.local = options_.local;
  cfg.aggregator = options_.aggregator;
  cfg.server_momentum = options_.server_momentum;
  cfg.validation = options_.validation;
  cfg.aggregation_shards = options_.aggregation_shards;
  cfg.max_replicas = options_.max_replicas;
  cfg.probe_sample = options_.probe_sample;
  cfg.probe_seed = options_.probe_seed;
  Rng part_rng = rng_.split();
  std::vector<data::Dataset> shards =
      options_.noniid ? data::dirichlet_partition(
                            train_set, num_nodes_, options_.dirichlet_alpha,
                            part_rng)
                      : data::iid_partition(train_set, num_nodes_, part_rng);
  Rng fed_rng = rng_.split();
  federation_ = std::make_unique<fl::Federation>(
      cfg, model_factory(), std::move(shards), std::move(test_set), fed_rng);
  accuracy_ = federation_->accuracy();
}

double FederatedBackend::reset() {
  rebuild();
  return accuracy_;
}

fl::TolerantRoundReport FederatedBackend::train(
    const std::vector<int>& participants, const std::vector<double>& weights,
    const std::vector<fl::RoundDelivery>& delivery, fl::DeferredEval& eval,
    bool& eval_pending) {
  // The federation weights uploads by each node's own data size D_i.
  CHIRON_CHECK(participants.size() == weights.size());
  eval_pending = true;
  return federation_->run_round_tolerant_deferred(participants, delivery,
                                                  eval);
}

double FederatedBackend::finish_round_eval(fl::DeferredEval& eval) {
  accuracy_ = federation_->finish_deferred_eval(eval);
  return accuracy_;
}

// ---------------------------------------------------------------------------

RealVisionBackend::RealVisionBackend(data::VisionTask task, int num_nodes,
                                     int samples_per_node, int test_samples,
                                     RealBackendOptions options, Rng rng)
    : FederatedBackend(num_nodes, options, rng),
      task_(task),
      samples_per_node_(samples_per_node),
      test_samples_(test_samples) {
  CHIRON_CHECK(num_nodes_ >= 1 && samples_per_node_ >= 1 &&
               test_samples_ >= 1);
  rebuild();
}

std::pair<data::Dataset, data::Dataset> RealVisionBackend::make_data(
    Rng& rng) {
  data::Dataset train = data::make_vision_dataset(
      task_, static_cast<std::int64_t>(num_nodes_) * samples_per_node_, rng);
  data::Dataset test = data::make_vision_dataset(task_, test_samples_, rng);
  return {std::move(train), std::move(test)};
}

fl::ModelFactory RealVisionBackend::model_factory() const {
  if (task_ == data::VisionTask::kCifarLike)
    return [](Rng& r) { return nn::make_lenet_cifar(r); };
  return [](Rng& r) { return nn::make_mnist_cnn(r); };
}

// ---------------------------------------------------------------------------

RealBlobsBackend::RealBlobsBackend(int num_nodes, int samples_per_node,
                                   int test_samples, int dims, int classes,
                                   double noise, RealBackendOptions options,
                                   Rng rng)
    : FederatedBackend(num_nodes, options, rng),
      samples_per_node_(samples_per_node),
      test_samples_(test_samples),
      dims_(dims),
      classes_(classes),
      noise_(noise) {
  CHIRON_CHECK(num_nodes_ >= 1 && samples_per_node_ >= 1 &&
               test_samples_ >= 1);
  rebuild();
}

std::pair<data::Dataset, data::Dataset> RealBlobsBackend::make_data(
    Rng& rng) {
  data::Dataset train = data::make_gaussian_blobs(
      static_cast<std::int64_t>(num_nodes_) * samples_per_node_, dims_,
      classes_, noise_, rng);
  data::Dataset test =
      data::make_gaussian_blobs(test_samples_, dims_, classes_, noise_, rng);
  return {std::move(train), std::move(test)};
}

fl::ModelFactory RealBlobsBackend::model_factory() const {
  const std::int64_t in = dims_;
  const std::int64_t out = classes_;
  return [in, out](Rng& r) { return nn::make_mlp_classifier(in, 32, out, r); };
}

}  // namespace chiron::core
