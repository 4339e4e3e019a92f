#include "core/env.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/round_log.h"
#include "obs/span.h"
#include "runtime/pipeline.h"

namespace chiron::core {

namespace {

/// Stream tag for churn rejoin profile resampling — disjoint from every
/// AdversaryPlan/FaultPlan/defense stream.
constexpr std::uint64_t kChurnDeviceTag = 0x5BD1E995u;

// Environment metric ids, registered once (thread-safe magic static).
struct EnvMetricIds {
  int rounds;
  int rounds_aborted;
  int nodes_offline;
  int budget_remaining;
  int accuracy;
  int adv_screened;
  int adv_flagged;
  int adv_departures;
  int adv_rejoins;
  int adv_freerides;
  int adv_misreports;
  int adv_clawed_back;
};

const EnvMetricIds& env_metrics() {
  static const EnvMetricIds ids = {
      obs::MetricsRegistry::instance().counter("env.rounds"),
      obs::MetricsRegistry::instance().counter("env.rounds_aborted"),
      obs::MetricsRegistry::instance().counter("env.nodes_offline"),
      obs::MetricsRegistry::instance().gauge("env.budget_remaining"),
      obs::MetricsRegistry::instance().gauge("env.accuracy"),
      obs::MetricsRegistry::instance().counter("adversary.screened"),
      obs::MetricsRegistry::instance().counter("adversary.flagged"),
      obs::MetricsRegistry::instance().counter("adversary.departures"),
      obs::MetricsRegistry::instance().counter("adversary.rejoins"),
      obs::MetricsRegistry::instance().counter("adversary.freerides"),
      obs::MetricsRegistry::instance().counter("adversary.misreports"),
      obs::MetricsRegistry::instance().gauge("adversary.clawed_back"),
  };
  return ids;
}

/// Aborted-round contract (see StepResult in env.h): a fresh result with
/// done/aborted set and accuracy frozen — every other field stays at its
/// zero default, so no partial round state (offline counts, a populated
/// outcome) can leak into an abort.
StepResult make_aborted_result(double frozen_accuracy) {
  StepResult res;
  res.done = true;
  res.aborted = true;
  res.accuracy = frozen_accuracy;
  return res;
}

std::unique_ptr<AccuracyBackend> make_backend(const EnvConfig& c, Rng rng) {
  RealBackendOptions options;
  options.local = c.local;
  options.noniid = c.noniid;
  options.dirichlet_alpha = c.dirichlet_alpha;
  options.aggregator = c.aggregator;
  options.server_momentum = c.server_momentum;
  options.validation.norm_bound = c.upload_norm_bound;
  options.aggregation_shards = c.aggregation_shards;
  options.max_replicas = c.max_replicas;
  switch (c.backend) {
    case BackendKind::kSurrogate: {
      const double total_weight =
          static_cast<double>(c.num_nodes) * c.data_bits_per_node;
      return std::make_unique<SurrogateBackend>(surrogate_curve_for(c.task),
                                                total_weight, rng);
    }
    case BackendKind::kRealVision:
      return std::make_unique<RealVisionBackend>(
          c.task, c.num_nodes, c.samples_per_node, c.test_samples, options,
          rng);
    case BackendKind::kRealBlobs:
      return std::make_unique<RealBlobsBackend>(
          c.num_nodes, c.samples_per_node, c.test_samples, c.blob_dims,
          c.blob_classes, c.blob_noise, options, rng);
  }
  CHIRON_CHECK_MSG(false, "unknown backend");
  return nullptr;
}

}  // namespace

EdgeLearnEnv::EdgeLearnEnv(const EnvConfig& config)
    : config_(config), rng_(config.seed) {
  CHIRON_CHECK(config_.num_nodes >= 1);
  CHIRON_CHECK(config_.budget > 0.0);
  CHIRON_CHECK(config_.local_epochs >= 1);
  CHIRON_CHECK(config_.history >= 1);
  CHIRON_CHECK(config_.max_rounds >= 1);
  CHIRON_CHECK(config_.time_norm > 0.0);
  CHIRON_CHECK(config_.node_availability > 0.0 &&
               config_.node_availability <= 1.0);
  CHIRON_CHECK(config_.round_deadline >= 0.0);
  CHIRON_CHECK_MSG(config_.aggregation_shards >= 1,
                   "aggregation_shards " << config_.aggregation_shards);
  CHIRON_CHECK_MSG(config_.max_replicas >= 0,
                   "max_replicas " << config_.max_replicas);
  // FaultPlan's constructor validates the fault probabilities; constructed
  // unconditionally so a bad config fails fast even with faults unused.
  fault_plan_ = std::make_unique<faults::FaultPlan>(config_.faults,
                                                    config_.num_nodes);
  // Same for the adversary plan and the reputation ledger (which
  // validates the defense config). Neither consumes env RNG, so their
  // presence leaves zero-knob runs bit-identical.
  adversary_plan_ = std::make_unique<adversary::AdversaryPlan>(
      config_.adversary, config_.num_nodes);
  reputation_ = std::make_unique<adversary::ReputationLedger>(
      config_.defense, config_.num_nodes);
  Rng dev_rng = rng_.split();
  devices_ = sysmodel::sample_devices(config_.population, config_.num_nodes,
                                      config_.data_bits_per_node, dev_rng);
  base_devices_ = devices_;
  for (const auto& d : devices_)
    price_cap_ += sysmodel::saturation_price(d, config_.local_epochs);
  price_norm_ = price_cap_ / static_cast<double>(config_.num_nodes);
  plane_ = std::make_unique<sysmodel::EconomicsPlane>(devices_,
                                                      config_.local_epochs);
  history_.resize(static_cast<std::size_t>(config_.history) * 3 *
                  static_cast<std::size_t>(config_.num_nodes));
  backend_ = make_backend(config_, rng_.split());
}

EdgeLearnEnv::~EdgeLearnEnv() = default;

std::vector<float> EdgeLearnEnv::reset() {
  // A round still in the pipeline belongs to the previous episode:
  // finalize it (writing its record) before tearing the state down.
  if (pending_.valid) drain();
  budget_remaining_ = config_.budget;
  ++episode_;
  round_ = 0;
  done_ = false;
  last_accuracy_ = backend_->reset();
  fault_plan_->reset();
  adversary_plan_->reset();
  reputation_->reset();
  total_clawed_back_ = 0.0;
  forfeited_total_ = 0.0;
  escrow_outstanding_ = 0.0;
  // Churn mutates device profiles mid-episode; every episode replays the
  // same fixed market (the population the mechanism learns about).
  devices_ = base_devices_;
  plane_->rebuild(devices_);
  history_len_ = 0;
  history_next_ = 0;
  return exterior_state();
}

StepResult EdgeLearnEnv::step(const std::vector<double>& prices) {
  CHIRON_CHECK_MSG(!done_, "step() on a finished episode; call reset()");
  CHIRON_CHECK(static_cast<int>(prices.size()) == config_.num_nodes);
  CHIRON_CHECK_MSG(!pending_.valid,
                   "step() with a pipelined round in flight; drain() first");
  obs::Span round_span(obs::Phase::kRound);
  PipelinedStep out;
  PendingRound settled = play_round(prices, out);
  if (out.aborted) return out.abort;
  pending_ = std::move(settled);
  if (pending_.eval_pending)
    pending_.res.accuracy = backend_->finish_round_eval(pending_.eval);
  return finalize_pending();
}

EdgeLearnEnv::PipelinedStep EdgeLearnEnv::step_pipelined(
    const std::vector<double>& prices) {
  CHIRON_CHECK_MSG(!done_,
                   "step_pipelined() on a finished episode; call reset()");
  CHIRON_CHECK(static_cast<int>(prices.size()) == config_.num_nodes);
  obs::Span round_span(obs::Phase::kRound);
  // Round k trains on this thread while round k-1's deferred evaluation
  // runs on the stage thread (they touch disjoint state: the stage task
  // only reads its frozen parameter snapshot and writes pending_.res).
  PipelinedStep out;
  PendingRound settled = play_round(prices, out);
  if (out.aborted) return out;

  // Hand-off point: join round k-1's eval, finalize it, then install
  // round k as the new in-flight round and submit its evaluation.
  finish_prev(out);
  pending_ = std::move(settled);
  if (pending_.eval_pending) {
    if (pipeline_ == nullptr)
      pipeline_ = std::make_unique<runtime::RoundPipeline>();
    pipeline_->submit([this] {
      pending_.res.accuracy = backend_->finish_round_eval(pending_.eval);
    });
  }
  return out;
}

StepResult EdgeLearnEnv::drain() {
  CHIRON_CHECK_MSG(pending_.valid, "drain() with no round in flight");
  if (pipeline_ != nullptr) pipeline_->join();
  return finalize_pending();
}

void EdgeLearnEnv::finish_prev(PipelinedStep& out) {
  if (!pending_.valid) return;
  if (pipeline_ != nullptr) pipeline_->join();
  out.prev = finalize_pending();
  out.prev_valid = true;
}

EdgeLearnEnv::PendingRound EdgeLearnEnv::play_round(
    const std::vector<double>& prices, PipelinedStep& out) {
  // Commit round k against the settled budget: round k-1 settled (and its
  // escrow cleared) before the call that committed it returned, so the
  // overdraw rule sees exactly the budget a sequential step would.
  CommitOut c = commit_round(prices);
  if (c.aborted) {
    // Record order is part of the byte-identity contract: finalize round
    // k-1 first (joining its eval, which also moves last_accuracy_ to the
    // value the abort freezes), then write the abort record.
    finish_prev(out);
    out.aborted = true;
    out.abort = make_aborted_result(last_accuracy_);
    emit_round(out.abort, c.p_total, c.p_posted, budget_remaining_,
               total_clawed_back_, forfeited_total_, round_ + 1);
    return {};
  }
  bool eval_pending = false;
  fl::DeferredEval eval;
  const fl::TolerantRoundReport rep =
      backend_->train(scratch_.participants, scratch_.weights,
                      scratch_.delivery, eval, eval_pending);
  PendingRound settled = settle_round(std::move(c), rep, eval_pending);
  settled.eval = std::move(eval);
  return settled;
}

void EdgeLearnEnv::RoundScratch::resize(std::size_t count) {
  participants.resize(count);
  weights.resize(count);
  delivery.resize(count);
  times.resize(count);
  paid.resize(count);
}

std::shared_ptr<sysmodel::DecisionBatch> EdgeLearnEnv::acquire_batch() {
  // chiron-hot-begin(env-acquire-batch)
  // A batch whose only owner is the pool is free: no StepResult or
  // pending round can still read it. The first free one is reused and
  // any further free ones are released, so the pool holds the batches
  // still referenced plus at most one spare.
  std::shared_ptr<sysmodel::DecisionBatch> spare;
  for (auto it = batches_.begin(); it != batches_.end();) {
    if (it->use_count() != 1) {
      ++it;
    } else if (spare == nullptr) {
      spare = *it++;
    } else {
      it = batches_.erase(it);
    }
  }
  if (spare != nullptr) {
    // use_count() is a relaxed load; the fence orders this round's
    // writes after the last reads of a holder that dropped the batch on
    // another thread (its release decrement is what the load saw).
    std::atomic_thread_fence(std::memory_order_acquire);
    return spare;
  }
  // chiron-lint: allow(AL1): the spare batch, made only while every pooled batch is held
  batches_.push_back(std::make_shared<sysmodel::DecisionBatch>());
  return batches_.back();
  // chiron-hot-end(env-acquire-batch)
}

EdgeLearnEnv::CommitOut EdgeLearnEnv::commit_round(
    const std::vector<double>& prices) {
  // chiron-hot-begin(env-commit)
  // One round of the market (DESIGN.md §5.6, §5.11). Faults and
  // adversaries only add per-node columns to it; with every knob off it
  // is the paper's round.
  //   1. draw this round's adversary and fault schedules,
  //   2. rejoin churned nodes (fresh profiles) / silence away, down and
  //      unavailable nodes,
  //   3. reserve-price screening on *reported* costs,
  //   4. the promised market: misreporters bill the honest frequency
  //      while running their inflated-cost response,
  //   5. overdraw-abort on the promised payment, escrow debit,
  //   6. training inputs: delivery outlook and reputation-scaled weights.
  CommitOut c;
  c.planned_round = round_;
  c.budget_checkpoint = budget_remaining_;
  const bool strategic = adversary_active();
  // Each schedule is drawn only while its knobs are on: an inert draw
  // yields all-clear events at the cost of one stream per node.
  if (strategic) c.adv = adversary_plan_->plan_round(c.planned_round);
  if (config_.faults.any()) c.events = fault_plan_->plan_round(c.planned_round);
  const auto misreport = [&c](std::size_t i) {
    return !c.adv.empty() && c.adv[i].adversarial ? c.adv[i].misreport_factor
                                                   : 1.0;
  };

  // Rejoining nodes return with resampled hardware before prices are
  // interpreted; the resample is keyed on (node, profile_version) so the
  // schedule is thread-count independent and replays across episodes.
  for (std::size_t i = 0; i < c.adv.size(); ++i) {
    if (!c.adv[i].rejoined) continue;
    Rng dev_rng(stream_seed(config_.adversary.seed ^ kChurnDeviceTag,
                            c.adv[i].profile_version, static_cast<int>(i)));
    devices_[i] = sysmodel::sample_device(
        config_.population, config_.data_bits_per_node, dev_rng);
    plane_->set_device(i, devices_[i]);
    ++c.res.rejoined;
  }

  // The round is played in a batch no held result still reads; its price
  // column carries the effective prices from here on.
  c.batch = acquire_batch();
  sysmodel::DecisionBatch& b = *c.batch;
  // chiron-lint: allow(AL1): DecisionBatch::resize grows only in the batch's first round
  b.resize(prices.size());

  // Effective prices, one pass in node order. Away (churned) and down
  // (persistent-outage) nodes never see the posted price — equivalent to
  // posting them a zero price (no payment, counted as fully idle by Eqns
  // 15–16); availability draws follow for the rest. Reserve-price
  // screening then prices out a node whose *reported* participation
  // floor 2(μ̂ + E^com) exceeds the bound. The posted and effective sums
  // run in the same node order as a separate pass over each column.
  const bool screening = config_.defense.reserve_price > 0.0;
  for (std::size_t i = 0; i < prices.size(); ++i) {
    double p = prices[i];
    c.p_posted += p;
    const bool away = !c.adv.empty() && c.adv[i].away;
    if (away || (!c.events.empty() && c.events[i].down) ||
        (config_.node_availability < 1.0 &&
         !rng_.bernoulli(config_.node_availability))) {
      p = 0.0;
      ++c.res.offline;
      if (away) ++c.res.departed;
    } else if (screening && p > 0.0 &&
               adversary::reported_floor_payment(adversary::reported_profile(
                   devices_[i], misreport(i))) >
                   config_.defense.reserve_price) {
      p = 0.0;
      ++c.res.screened;
    }
    b.price[i] = p;
    c.p_total += p;
  }

  // The promised market on the SoA plane: one batched best-response pass
  // over the price column (bit-identical to sysmodel::best_response,
  // plane_test pins it), then the misreporters' rows are patched.
  // misreported_response(f = 1) is exactly best_response, so only f > 1
  // rows need the scalar call.
  plane_->best_response_batch(b);
  for (std::size_t i = 0; i < c.adv.size(); ++i) {
    const double f = misreport(i);
    if (f > 1.0)
      b.set(i, sysmodel::misreported_response(devices_[i], b.price[i],
                                              config_.local_epochs, f));
  }
  c.promised = plane_->aggregate_round(b);

  // Paper §V-A: if paying this round would overdraw the budget, the round
  // is discarded (no training, no recording) and learning stops. The rule
  // reads the *promised* payment — the server commits before knowing who
  // delivers, and settle only ever shrinks the realized total.
  if (c.promised.total_payment > budget_remaining_) {
    done_ = true;
    c.aborted = true;
    return c;
  }
  // Escrow debit of the promised total. Settle returns the escrow of
  // honest non-delivery but routes audit-forfeited payments to the
  // non-spendable ledger — they never refill the budget.
  budget_remaining_ -= c.promised.total_payment;
  escrow_outstanding_ = c.promised.total_payment;
  ++round_;

  // Per-participant delivery outlook. A crash wins over lateness (the
  // upload never exists to be late); corruption only matters if the
  // upload arrives at all. A free-rider mimics honest timing (instant
  // uploads would expose it); its upload is a stale global model. Only a
  // fault or a deadline can move a node off its promised time.
  c.timed = !c.events.empty() || config_.round_deadline > 0.0;
  // chiron-lint: allow(AL1): RoundScratch::resize grows only in the first rounds
  scratch_.resize(static_cast<std::size_t>(c.promised.participants));
  std::size_t count = 0;
  for (std::size_t i = 0; i < b.size(); ++i)
    if (b.participates[i]) scratch_.participants[count++] = static_cast<int>(i);
  const sysmodel::Column& data_bits = plane_->data_bits();
  for (std::size_t s = 0; s < count; ++s) {
    scratch_.weights[s] =
        data_bits[static_cast<std::size_t>(scratch_.participants[s])];
    scratch_.delivery[s] = fl::RoundDelivery{};
  }
  if (!c.timed && !strategic) return c;
  const faults::FaultEvent no_fault;
  for (std::size_t s = 0; s < count; ++s) {
    const auto i = static_cast<std::size_t>(scratch_.participants[s]);
    fl::RoundDelivery& d = scratch_.delivery[s];
    if (c.timed) {
      const faults::FaultEvent& e = c.events.empty() ? no_fault : c.events[i];
      scratch_.times[s] = sysmodel::realized_node_time(
          b.node(i), e.slowdown, config_.round_deadline);
      d.crash = e.crash;
      const double full_time = b.compute_time[i] * e.slowdown + b.comm_time[i];
      d.late =
          config_.round_deadline > 0.0 && full_time > config_.round_deadline;
      d.corruption = e.corruption;
    }
    if (strategic) {
      d.freeride = c.adv[i].freeride;
      if (c.adv[i].freeride) ++c.res.freeriding;
      if (c.adv[i].misreport_factor > 1.0) ++c.res.misreporting;
      // Reputation-weighted aggregation: the node's data weight is scaled
      // by its ledger weight (exactly 1 while the defense is off).
      scratch_.weights[s] *= reputation_->weight(static_cast<int>(i));
    }
  }
  return c;
  // chiron-hot-end(env-commit)
}

EdgeLearnEnv::PendingRound EdgeLearnEnv::settle_round(
    CommitOut c, const fl::TolerantRoundReport& rep, bool eval_pending) {
  // chiron-hot-begin(env-settle)
  StepResult& res = c.res;
  sysmodel::DecisionBatch& b = *c.batch;
  const bool strategic = adversary_active();
  const auto& participants = scratch_.participants;
  // Pay-on-delivery: only nodes whose upload was actually aggregated earn
  // their promised p·ζ; everyone else trained for free. When every
  // participant delivered at its promised time and nobody is flagged,
  // the promised batch IS the realized one.
  bool as_promised = rep.delivered == static_cast<int>(participants.size());
  if (c.timed) {
    for (std::size_t s = 0; s < participants.size(); ++s) {
      const auto i = static_cast<std::size_t>(participants[s]);
      as_promised = as_promised && scratch_.times[s] == b.total_time[i];
    }
  }
  if (!as_promised || strategic) {
    for (std::size_t s = 0; s < participants.size(); ++s) {
      scratch_.paid[s] = 0;
      if (rep.status[s] != fl::DeliveryStatus::kDelivered) continue;
      const auto i = static_cast<std::size_t>(participants[s]);
      // Audits (adversary or defense on): a delivered upload is paid
      // unless an audit fires and catches a free-ride (always
      // unambiguous — the upload is a byte-copy of the model the server
      // handed out) or a cost report inflated beyond the tolerance. A
      // flagged payment is forfeited — it left the budget at commit and
      // never comes back.
      bool pay = true;
      if (strategic && adversary::audit_fires(config_.defense,
                                              c.planned_round,
                                              participants[s])) {
        if (c.adv[i].freeride ||
            c.adv[i].misreport_factor >= config_.defense.audit_tolerance) {
          pay = false;
          ++res.flagged;
          res.clawed_back += b.payment[i];
        }
      }
      scratch_.paid[s] = pay ? 1 : 0;
    }
    as_promised = as_promised && res.flagged == 0;
  }
  sysmodel::RoundAggregates agg = c.promised;
  if (!as_promised) {
    // Realize in place: realized times replace the promised ones and
    // unpaid payments are zeroed, then the plane re-aggregates. Energy
    // and participation carry over (compute happened either way). Within
    // one chunk this is realize_round op for op; at any N it is the same
    // chunk order the promised market was summed in.
    for (std::size_t s = 0; s < participants.size(); ++s) {
      const auto i = static_cast<std::size_t>(participants[s]);
      if (c.timed) b.total_time[i] = scratch_.times[s];
      if (!scratch_.paid[s]) b.payment[i] = 0.0;
    }
    agg = plane_->aggregate_round(b);
  }
  if (strategic) {
    total_clawed_back_ += res.clawed_back;
    // Reputation EMA on observed outcomes: clean paid delivery earns 1,
    // a flagged or failed delivery earns 0; nodes that sat out keep
    // their score. The server cannot tell a crash from malice — both
    // cost it a round — so both depress reputation until clean rounds
    // rebuild it.
    for (std::size_t s = 0; s < participants.size(); ++s) {
      const bool clean = rep.status[s] == fl::DeliveryStatus::kDelivered &&
                         scratch_.paid[s] != 0;
      reputation_->update(participants[s], clean ? 1.0 : 0.0);
    }
  }
  res.participants = agg.participants;
  res.delivered = rep.delivered;
  res.crashed = rep.crashed;
  res.late = rep.late;
  res.rejected = rep.rejected;
  res.lightweight = rep.lightweight;

  // Escrow settle from the commit checkpoint: realized payments leave for
  // good, the undelivered escrow returns, and audit forfeitures move to
  // the non-spendable ledger instead of returning. The checkpoint form
  // keeps clawback-free rounds bit-identical to a single debit (b − R),
  // and drains clawbacks on top ((b − R) − C).
  budget_remaining_ = c.budget_checkpoint - agg.total_payment;
  if (res.clawed_back > 0.0) {
    budget_remaining_ -= res.clawed_back;
    forfeited_total_ += res.clawed_back;
  }
  escrow_outstanding_ = 0.0;
  res.forfeited_total = forfeited_total_;

  res.round_time = agg.round_time;
  res.payment = agg.total_payment;
  res.idle_time = agg.idle_time;
  res.time_efficiency = agg.time_efficiency;
  if (!eval_pending) res.accuracy = rep.accuracy;

  // History records the realized times — the exterior state should reflect
  // the node speeds the mechanism actually observed.
  record_history(b);

  if (budget_remaining_ <= 0.0 || round_ >= config_.max_rounds) done_ = true;
  res.done = done_;

  // Capture every record/metric input now: by the time this round is
  // finalized the live members may already belong to round k+1.
  PendingRound p;
  p.valid = true;
  p.eval_pending = eval_pending;
  p.p_total = c.p_total;
  p.p_posted = c.p_posted;
  p.budget_remaining = budget_remaining_;
  p.total_clawed_back = total_clawed_back_;
  p.forfeited_total = forfeited_total_;
  p.round = round_;
  res.outcome = {agg, sysmodel::DecisionView(std::move(c.batch))};
  p.res = std::move(res);
  return p;
  // chiron-hot-end(env-settle)
}

void EdgeLearnEnv::record_history(const sysmodel::DecisionBatch& batch) {
  // chiron-hot-begin(env-history)
  const std::size_t n = batch.size();
  const double zeta_norm = config_.population.zeta_max_hi;
  float* block =
      history_.data() + static_cast<std::size_t>(history_next_) * 3 * n;
  for (std::size_t i = 0; i < n; ++i) {
    block[3 * i] = static_cast<float>(batch.zeta[i] / zeta_norm);
    block[3 * i + 1] = static_cast<float>(batch.price[i] / price_norm_);
    block[3 * i + 2] =
        static_cast<float>(batch.total_time[i] / config_.time_norm);
  }
  history_next_ = (history_next_ + 1) % config_.history;
  history_len_ = std::min(history_len_ + 1, config_.history);
  // chiron-hot-end(env-history)
}

StepResult EdgeLearnEnv::finalize_pending() {
  CHIRON_CHECK(pending_.valid);
  StepResult res = std::move(pending_.res);
  // The deferred evaluation (if any) has already filled res.accuracy —
  // by the stage task in pipelined mode, inline in step().
  res.accuracy_gain = res.accuracy - last_accuracy_;
  last_accuracy_ = res.accuracy;

  // Exterior reward (Eqn 14; see DESIGN.md on the λ placement). Rewards
  // use realized quantities: the agents feel crashes and stragglers as
  // lost ΔA and stretched T_k.
  const double time_term = config_.lambda_on_time
                               ? config_.lambda_pref * res.round_time
                               : res.round_time;
  res.raw_exterior_reward =
      config_.lambda_pref * res.accuracy_gain - time_term;
  if (res.participants == 0) {
    res.reward_exterior = -config_.empty_round_penalty;
    res.reward_inner = -config_.empty_round_penalty;
  } else {
    res.reward_exterior = res.raw_exterior_reward / config_.time_norm;
    // Inner reward (Eqn 15): negative total idle time.
    res.reward_inner =
        -res.idle_time /
        (static_cast<double>(config_.num_nodes) * config_.time_norm);
  }

  emit_round(res, pending_.p_total, pending_.p_posted,
             pending_.budget_remaining, pending_.total_clawed_back,
             pending_.forfeited_total, pending_.round);
  pending_.valid = false;
  return res;
}

void EdgeLearnEnv::emit_round(const StepResult& res, double p_total,
                              double p_posted, double budget_remaining,
                              double total_clawed_back,
                              double forfeited_total, int record_round) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  if (reg.enabled()) {
    const EnvMetricIds& m = env_metrics();
    reg.add(res.aborted ? m.rounds_aborted : m.rounds);
    if (res.offline > 0)
      reg.add(m.nodes_offline, static_cast<std::uint64_t>(res.offline));
    reg.set(m.budget_remaining, budget_remaining);
    reg.set(m.accuracy, res.accuracy);
    if (adversary_active()) {
      if (res.screened > 0)
        reg.add(m.adv_screened, static_cast<std::uint64_t>(res.screened));
      if (res.flagged > 0)
        reg.add(m.adv_flagged, static_cast<std::uint64_t>(res.flagged));
      if (res.departed > 0)
        reg.add(m.adv_departures, static_cast<std::uint64_t>(res.departed));
      if (res.rejoined > 0)
        reg.add(m.adv_rejoins, static_cast<std::uint64_t>(res.rejoined));
      if (res.freeriding > 0)
        reg.add(m.adv_freerides, static_cast<std::uint64_t>(res.freeriding));
      if (res.misreporting > 0)
        reg.add(m.adv_misreports,
                static_cast<std::uint64_t>(res.misreporting));
      reg.set(m.adv_clawed_back, total_clawed_back);
    }
  }

  if (round_sink_ == nullptr) return;
  obs::RoundRecord r;
  r.episode = episode_;
  // Executed rounds stamp their own (post-increment) index; an aborted
  // attempt is the round that *would have been* next. Both are passed in
  // as captured values — in pipelined mode the live round_ may already
  // belong to round k+1.
  r.round = record_round;
  r.aborted = res.aborted;
  // p_total is the sum the market actually ran on (screened/offline nodes
  // at 0); the raw posted action is logged separately as p_posted.
  r.p_total = p_total;
  r.p_posted = p_posted;
  r.payment = res.payment;
  r.budget_remaining = budget_remaining;
  r.round_time = res.round_time;
  r.idle_time = res.idle_time;
  r.time_efficiency = res.time_efficiency;
  r.accuracy = res.accuracy;
  r.accuracy_gain = res.accuracy_gain;
  r.raw_exterior_reward = res.raw_exterior_reward;
  r.reward_exterior = res.reward_exterior;
  r.reward_inner = res.reward_inner;
  r.participants = res.participants;
  r.offline = res.offline;
  r.delivered = res.delivered;
  r.crashed = res.crashed;
  r.late = res.late;
  r.rejected = res.rejected;
  // Gated on the env config (not per-round state): records of a zero-knob
  // run stay byte-identical to pre-adversary logs.
  if (adversary_active()) {
    r.adversary = true;
    r.screened = res.screened;
    r.flagged = res.flagged;
    r.departed = res.departed;
    r.rejoined = res.rejoined;
    r.freeriding = res.freeriding;
    r.misreporting = res.misreporting;
    r.clawed_back = res.clawed_back;
    r.forfeited_total = forfeited_total;
  }
  if (!res.aborted) {
    const sysmodel::DecisionBatch& b = res.outcome.nodes.columns();
    r.node_prices.assign(b.price.begin(), b.price.end());
    r.node_zetas.assign(b.zeta.begin(), b.zeta.end());
    r.node_participates.assign(b.participates.begin(), b.participates.end());
    r.node_times.assign(b.total_time.begin(), b.total_time.end());
    r.node_payments.assign(b.payment.begin(), b.payment.end());
  }
  round_sink_->write(r);
}

std::int64_t EdgeLearnEnv::exterior_state_dim() const {
  return static_cast<std::int64_t>(config_.history) * 3 * config_.num_nodes +
         2;
}

std::vector<float> EdgeLearnEnv::exterior_state() const {
  // Layout: for each of the L most recent rounds (oldest first, zero-padded
  // at episode start): ζ_i/ζ_hi, p_i/price_norm, T_i/time_norm for every
  // node; then remaining-budget fraction and round-index fraction. The
  // round blocks were normalized when their rounds settled.
  const std::size_t block = 3 * static_cast<std::size_t>(config_.num_nodes);
  std::vector<float> s;
  s.reserve(static_cast<std::size_t>(exterior_state_dim()));
  s.insert(s.end(),
           static_cast<std::size_t>(config_.history - history_len_) * block,
           0.f);
  // The oldest written block sits history_len_ blocks behind the next.
  for (int h = 0; h < history_len_; ++h) {
    const int slot =
        (history_next_ - history_len_ + h + config_.history) % config_.history;
    const auto first =
        history_.begin() + static_cast<std::ptrdiff_t>(slot) *
                               static_cast<std::ptrdiff_t>(block);
    s.insert(s.end(), first, first + static_cast<std::ptrdiff_t>(block));
  }
  s.push_back(static_cast<float>(budget_remaining_ / config_.budget));
  s.push_back(static_cast<float>(static_cast<double>(round_) /
                                 static_cast<double>(config_.max_rounds)));
  CHIRON_CHECK(static_cast<std::int64_t>(s.size()) == exterior_state_dim());
  return s;
}

double EdgeLearnEnv::per_node_price_cap(int i) const {
  CHIRON_CHECK(i >= 0 && i < config_.num_nodes);
  return sysmodel::saturation_price(devices_[static_cast<std::size_t>(i)],
                                    config_.local_epochs);
}

std::vector<double> EdgeLearnEnv::equal_time_proportions(
    double total_price) const {
  CHIRON_CHECK(total_price > 0.0);
  // Bisection on a common target time T: each node needs price
  // p_i(T) = 2σα_i c_i d_i · ζ_i(T) with ζ_i(T) = σ c_i d_i / (T − T^com_i),
  // clamped to the feasible frequency range. Σ p_i(T) is decreasing in T,
  // so bisect until the prices exhaust total_price.
  const int sigma = config_.local_epochs;
  auto price_for_time = [&](const sysmodel::DeviceProfile& d, double T) {
    const double t_cmp = std::max(T - d.comm_time, 1e-9);
    double zeta = static_cast<double>(sigma) * d.cycles_per_bit * d.data_bits /
                  t_cmp;
    zeta = std::clamp(zeta, d.zeta_min, d.zeta_max);
    const double coeff = 2.0 * static_cast<double>(sigma) * d.capacitance *
                         d.cycles_per_bit * d.data_bits;
    double price = coeff * zeta;
    // Participation floor: in the interior regime u = p²/(2·coeff) − E_com,
    // so the node declines below p_min = sqrt(2·coeff·(μ + E_com)). Paying
    // less buys nothing (Lemma 1's feasibility bound on training time).
    const double e_com = d.comm_energy_rate * d.comm_time;
    const double p_min =
        std::sqrt(2.0 * coeff * (d.reserve_utility + e_com)) * 1.02;
    return std::max(price, p_min);
  };
  double lo = 0.0, hi = 0.0;  // T range: fastest possible .. slowest possible
  for (const auto& d : devices_) {
    const double t_fast = static_cast<double>(sigma) * d.cycles_per_bit *
                              d.data_bits / d.zeta_max +
                          d.comm_time;
    const double t_slow = static_cast<double>(sigma) * d.cycles_per_bit *
                              d.data_bits / d.zeta_min +
                          d.comm_time;
    lo = std::min(lo == 0.0 ? t_fast : lo, t_fast);
    hi = std::max(hi, t_slow);
  }
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double sum = 0.0;
    for (const auto& d : devices_) sum += price_for_time(d, mid);
    if (sum > total_price) {
      lo = mid;  // too expensive → allow more time
    } else {
      hi = mid;
    }
  }
  std::vector<double> prices;
  prices.reserve(devices_.size());
  double sum = 0.0;
  for (const auto& d : devices_) {
    prices.push_back(price_for_time(d, hi));
    sum += prices.back();
  }
  std::vector<double> proportions(prices.size());
  for (std::size_t i = 0; i < prices.size(); ++i)
    proportions[i] = sum > 0.0 ? prices[i] / sum
                               : 1.0 / static_cast<double>(prices.size());
  return proportions;
}

}  // namespace chiron::core
