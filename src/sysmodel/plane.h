// Structure-of-arrays economics plane for large node populations
// (DESIGN.md §5.12).
//
// `sysmodel::best_response`/`run_round` walk an array-of-structs
// `NodeDecision` vector and recompute the energy coefficient several
// times per node — fine at N=100, ruinous at N=100k. The plane stores
// the per-device constants (cost coefficients, zeta bounds, comm times,
// reserves) as contiguous 64-byte-aligned `double` columns built once
// per population, and evaluates whole rounds as batched column passes:
//
//   best_response_batch  — elementwise Eqn (11) best response + reserve
//                          gate into a reusable `DecisionBatch` SoA
//   utility_batch        — elementwise Eqn (8) utilities
//   aggregate_round      — Eqns (15)/(16) round aggregates via a
//                          fixed-chunk two-phase reduction
//
// Determinism contract:
//   * Elementwise passes run under runtime::parallel_for; every output
//     element is produced by the same arithmetic a serial loop would
//     execute, so results are bit-identical at any --threads and
//     bit-for-bit equal to per-node sysmodel::best_response /
//     utility_at (the plane_test property tests pin this).
//   * Reductions never use parallel_for's thread-count-dependent split.
//     The population is cut into fixed chunks of `chunk_size()` nodes;
//     per-chunk partials are computed independently (parallel_map over
//     chunk indices) and folded serially in ascending chunk order. The
//     summation schedule is therefore a pure function of (N, chunk),
//     never of the thread count. With N <= chunk_size() there is exactly
//     one chunk and the fold reproduces sysmodel::aggregate_round
//     op-for-op — which covers every pre-existing configuration (the
//     default chunk is far above N=100) and keeps zero-knob runs
//     byte-identical.
//   * Columns and DecisionBatch storage are reused across rounds:
//     after the first round of an episode the steady state performs no
//     heap allocation (aligned storage via runtime::AlignedAllocator,
//     the PR 3 arena machinery).
//   * A settled round is published as a `BatchOutcome`: its aggregates
//     plus a `DecisionView` over the shared, immutable batch. Copying
//     one is O(1); the per-node rows are materialized only when read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "runtime/workspace.h"
#include "sysmodel/economics.h"
#include "sysmodel/device.h"

namespace chiron::sysmodel {

/// Contiguous double column, cache-line aligned like the PR 3 arena
/// buffers so batched passes can stream with aligned vector loads.
using Column =
    std::vector<double, runtime::AlignedAllocator<
                            double, runtime::Workspace::kAlignment>>;

/// One round of per-node decisions in structure-of-arrays form: column i
/// holds what `NodeDecision` field i would hold for every node. Storage
/// is reused across rounds (resize never shrinks capacity).
struct DecisionBatch {
  std::vector<std::uint8_t> participates;  // 0/1 mask
  Column price;
  Column zeta;
  Column compute_time;
  Column comm_time;
  Column total_time;
  Column compute_energy;
  Column comm_energy;
  Column utility;
  Column payment;

  void resize(std::size_t n);
  std::size_t size() const { return price.size(); }

  /// Materializes node i as the scalar struct (exactly the fields
  /// best_response would have produced).
  NodeDecision node(std::size_t i) const;

  /// Overwrites node i's row with a scalar decision (the inverse of
  /// node(i)); used to patch rows a batched pass cannot compute.
  void set(std::size_t i, const NodeDecision& d);
};

/// Round aggregates without the per-node AoS payload — the scalar
/// RoundOutcome minus `nodes`.
struct RoundAggregates {
  int participants = 0;
  double round_time = 0.0;
  double total_payment = 0.0;
  double total_energy = 0.0;
  double idle_time = 0.0;
  double time_efficiency = 0.0;
};

/// Read-only view of one round's shared, immutable DecisionBatch. It reads
/// like the scalar `RoundOutcome::nodes` vector — size(), empty(),
/// operator[] and range-for — but each element is a NodeDecision
/// materialized by value from the columns, so holding or copying the view
/// never copies per-node data. An empty view (no batch) has size 0.
class DecisionView {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = NodeDecision;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = NodeDecision;

    iterator() = default;
    iterator(const DecisionBatch* batch, std::size_t i)
        : batch_(batch), i_(i) {}
    NodeDecision operator*() const { return batch_->node(i_); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++i_;
      return before;
    }
    bool operator==(const iterator& other) const { return i_ == other.i_; }

   private:
    const DecisionBatch* batch_ = nullptr;
    std::size_t i_ = 0;
  };

  DecisionView() = default;
  explicit DecisionView(std::shared_ptr<const DecisionBatch> batch)
      : batch_(std::move(batch)) {}

  std::size_t size() const { return batch_ ? batch_->size() : 0; }
  bool empty() const { return size() == 0; }
  NodeDecision operator[](std::size_t i) const { return batch_->node(i); }
  iterator begin() const { return {batch_.get(), 0}; }
  iterator end() const { return {batch_.get(), size()}; }

  /// The columns themselves (an empty batch for an empty view).
  const DecisionBatch& columns() const;

 private:
  std::shared_ptr<const DecisionBatch> batch_;
};

/// One round on the plane: the aggregates plus the per-node view.
struct BatchOutcome : RoundAggregates {
  DecisionView nodes;
};

class EconomicsPlane {
 public:
  /// Default reduction chunk. Any population up to this size reduces as
  /// a single chunk, op-for-op identical to sysmodel::aggregate_round.
  static constexpr std::size_t kDefaultChunk = 8192;

  /// Builds the constant columns for `devices` (copied; rebuild() after
  /// churn). `chunk` is test-only: shrinking it exercises the
  /// multi-chunk reduction on small populations.
  EconomicsPlane(const std::vector<DeviceProfile>& devices, int local_epochs,
                 std::size_t chunk = kDefaultChunk);

  /// Recomputes the constant columns from a (possibly mutated) device
  /// vector of the same or different size.
  void rebuild(const std::vector<DeviceProfile>& devices);

  /// Recomputes node i's constants after its profile changed (churn
  /// rejoin): the row then equals what rebuild() would have produced.
  void set_device(std::size_t i, const DeviceProfile& device);

  /// Batched Eqn (11) best response: out column j of node i is
  /// bit-identical to best_response(devices[i], prices[i]).field j.
  void best_response_batch(const std::vector<double>& prices,
                           DecisionBatch& out) const;

  /// The same pass on prices already written to `batch.price` (the batch
  /// sized to the plane): the caller fills the price column once and the
  /// market runs on it in place, bit-identical to the vector overload.
  void best_response_batch(DecisionBatch& batch) const;

  /// Batched Eqn (8): utilities[i] == utility_at(devices[i], prices[i],
  /// zetas[i], local_epochs), bit for bit.
  void utility_batch(const std::vector<double>& prices,
                     const std::vector<double>& zetas,
                     std::vector<double>& utilities) const;

  /// Eqns (15)/(16) aggregates of a decision batch via the fixed-chunk
  /// deterministic reduction described in the header comment. Over a
  /// realized batch (pay-on-delivery: unpaid payments zeroed, realized
  /// times written in place) a single chunk reproduces
  /// sysmodel::realize_round op for op — a zeroed payment adds +0.0,
  /// which leaves the non-negative sum unchanged.
  RoundAggregates aggregate_round(const DecisionBatch& batch) const;

  /// Convenience: best response + aggregation + AoS materialization into
  /// the scalar RoundOutcome (bit-identical to sysmodel::run_round when
  /// the batch reduces as a single chunk). `batch` is caller-owned
  /// scratch so steady-state rounds stay allocation-free.
  RoundOutcome run_round(const std::vector<double>& prices,
                         DecisionBatch& batch) const;

  /// Copies aggregates + per-node columns into the scalar RoundOutcome.
  RoundOutcome to_outcome(const DecisionBatch& batch,
                          const RoundAggregates& agg) const;

  /// d_i per node (bits per local epoch): the FedAvg data weights.
  const Column& data_bits() const { return data_bits_; }

  std::size_t num_nodes() const { return k2_.size(); }
  int local_epochs() const { return local_epochs_; }
  std::size_t chunk_size() const { return chunk_; }

 private:
  /// Shared body of both best_response_batch overloads; `prices` may
  /// alias `out.price` (each lane reads its price before writing it).
  void best_response_into(const double* prices, DecisionBatch& out) const;

  int local_epochs_ = 1;
  std::size_t chunk_ = kDefaultChunk;
  // Per-device constants, precomputed with the exact operation order of
  // the scalar helpers (economics.cpp) so downstream arithmetic matches
  // bit for bit:
  Column k2_;        // 2·σαcd — best-response denominator (Eqn 11)
  Column coeff_;     // σαcd   — energy coefficient
  Column t_num_;     // σ·c·d  — compute-time numerator (Eqn 6)
  Column e_com_;     // ε·T^com — per-round comm energy (Eqn 7)
  Column zeta_min_;
  Column zeta_max_;
  Column comm_time_;
  Column reserve_;
  Column data_bits_;
};

}  // namespace chiron::sysmodel
