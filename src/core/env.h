// EdgeLearnEnv: the edge-learning incentive MDP (paper §III and §V-A).
//
// One step = one training round k: the caller posts per-node prices, nodes
// play their best responses (sysmodel), participating nodes train
// (accuracy backend), the server pays Σ p_i ζ_i from the budget, and the
// environment emits the exterior and inner rewards (Eqns 14–15). The
// episode ends when the budget is exhausted — including the paper's rule
// that a round whose payment would overdraw the budget is *discarded* and
// learning stops immediately.
//
// Economic note: the device d_i (bits per epoch) is configured explicitly
// (default ≈ a 500-image MNIST shard) and is deliberately decoupled from
// the sample count the real-training backend uses, so that time/energy/
// payment scales stay at paper scale even in fast training modes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/adversary_plan.h"
#include "adversary/defense.h"
#include "core/accuracy_backend.h"
#include "faults/fault_plan.h"
#include "sysmodel/economics.h"
#include "sysmodel/plane.h"

namespace chiron::obs {
class RoundSink;
}  // namespace chiron::obs

namespace chiron::runtime {
class RoundPipeline;
}  // namespace chiron::runtime

namespace chiron::core {

enum class BackendKind { kSurrogate, kRealVision, kRealBlobs };

struct EnvConfig {
  int num_nodes = 5;
  data::VisionTask task = data::VisionTask::kMnistLike;
  double budget = 100.0;         // η
  double lambda_pref = 2000.0;   // λ (paper §VI-A)
  int local_epochs = 5;          // σ
  int history = 2;               // L rounds of history in the exterior state
  int max_rounds = 120;          // safety cap (episodes end on budget)
  bool lambda_on_time = false;   // ablation: literal Eqn (14) form
  double empty_round_penalty = 1.0;  // normalized penalty when nobody joins
  double time_norm = 60.0;       // seconds; state/reward normalization

  sysmodel::DevicePopulation population;
  /// d_i bits per epoch per node; 1e8 ≈ 4,000 MNIST images (float32).
  /// At this scale slow (cheap) rounds genuinely cost wall-clock — compute
  /// time ranges ~3–100 s against 10–20 s communication — which is what
  /// makes the pricing/time tradeoff of the paper meaningful. Scale-100
  /// experiments divide a fixed corpus across nodes (see bench configs).
  double data_bits_per_node = 1e8;

  /// Per-round probability that a node is online at all. Offline nodes
  /// never see the posted price (robustness extension; 1.0 = paper model).
  double node_availability = 1.0;

  /// Mid-round fault injection (crash / straggler / corrupt-upload, see
  /// src/faults). All probabilities default to zero = the paper model.
  /// Every round pays on delivery (crashed/late/rejected nodes earn
  /// nothing and don't drain η); faults add the schedule that makes
  /// nodes crash, straggle or corrupt their uploads.
  faults::FaultConfig faults;
  /// Server round deadline in seconds; uploads arriving later are
  /// discarded (their nodes unpaid). 0 = no deadline (paper model).
  /// Naturally slow nodes can miss it even without injected stragglers.
  double round_deadline = 0.0;
  /// L2 norm bound of the server's upload validation (real backends);
  /// <= 0 keeps only the all-finite check.
  double upload_norm_bound = 1e8;

  /// Strategic node behavior (cost misreporting, free-riding, churn; see
  /// src/adversary). All knobs default to zero/off = the honest market.
  /// When the adversary or any defense is active each round also draws
  /// the adversary schedule, and settle audits and updates reputations.
  adversary::AdversaryConfig adversary;
  /// Mechanism-side defenses (reserve-price screening, delivered-accuracy
  /// audits with clawback, reputation-weighted aggregation). All off by
  /// default.
  adversary::DefenseConfig defense;

  BackendKind backend = BackendKind::kSurrogate;
  // Real-training knobs (vision & blobs backends).
  int samples_per_node = 64;
  int test_samples = 256;
  fl::LocalTrainConfig local;
  /// Label-skewed (Dirichlet) shards instead of IID — real backends only.
  bool noniid = false;
  double dirichlet_alpha = 0.5;
  /// Server aggregation rule for real backends (FedAvg or FedAvgM).
  fl::Aggregator aggregator = fl::Aggregator::kFedAvg;
  double server_momentum = 0.9;
  /// Two-tier aggregation tree fan-in for the real backends (DESIGN.md
  /// §5.12): uploads stream through `aggregation_shards` shard
  /// aggregators, keeping server memory O(model·shards). 1 = the flat
  /// legacy path, byte-identical to pre-shard-tree outputs.
  int aggregation_shards = 1;
  /// Replica budget (lightweight-node mode): when positive and below
  /// num_nodes, only a deterministic trainer subset of that size holds
  /// model replicas in the real backends; the rest contribute economics
  /// and gradient statistics only. 0 = every node holds a replica. The
  /// surrogate backend has no replicas, so the knob is a no-op there.
  int max_replicas = 0;
  // Blobs backend shape.
  int blob_dims = 16;
  int blob_classes = 5;
  double blob_noise = 0.9;

  std::uint64_t seed = 1;
};

/// Everything observable about one executed round.
///
/// Copying a StepResult is O(1) at any N: `outcome` is the round's
/// aggregates plus `outcome.nodes`, a read-only view over the economics
/// plane's decision batch for the round, shared and immutable once the
/// round settled. `nodes[i]` and range-for yield `NodeDecision` values
/// built from the columns; a held result keeps its batch alive and
/// unchanged, and the env reuses a batch only once no result holds it.
///
/// Aborted-round contract: when a round is discarded because its payment
/// would overdraw the budget, the StepResult carries `done = true`,
/// `aborted = true`, `accuracy` frozen at the last trained value — and
/// every other field at its zero default (no payment, no participants, no
/// offline count, empty `outcome`). The discarded round never happened
/// economically, so nothing about it may leak into metrics or histories;
/// env_test.cpp pins this with and without faults.
struct StepResult {
  bool done = false;
  bool aborted = false;        // payment would overdraw: round discarded
  double reward_exterior = 0;  // normalized r^E
  double reward_inner = 0;     // normalized r^I
  // Raw metrics.
  double raw_exterior_reward = 0;  // λΔA − T_k (paper units)
  double round_time = 0;           // T_k
  double accuracy = 0;             // A(ω_k)
  double accuracy_gain = 0;        // ΔA
  double payment = 0;              // Σ p_i ζ_i this round
  double idle_time = 0;
  double time_efficiency = 0;      // Eqn (16)
  int participants = 0;
  int offline = 0;                 // nodes unavailable this round (includes
                                   // persistent fault outages)
  // Realized delivery of this round (pay-on-delivery). With no faults
  // configured every valid upload delivers.
  int delivered = 0;               // uploads aggregated (and paid)
  int crashed = 0;                 // mid-round crashes: upload never arrived
  int late = 0;                    // missed the round deadline
  int rejected = 0;                // failed the server's upload validation
  int lightweight = 0;             // delivered stats-only nodes (replica cap)
  // Adversary and defenses (all zero while their knobs are off).
  int screened = 0;      // priced out by reserve-price screening
  int flagged = 0;       // delivered but audited and caught: payment clawed
  int departed = 0;      // churned away this round (counted in offline too)
  int rejoined = 0;      // returned from churn with a resampled profile
  int freeriding = 0;    // participating free-riders
  int misreporting = 0;  // participating cost-misreporters (factor > 1)
  double clawed_back = 0.0;  // Σ payments zeroed by audits this round
  /// Episode balance of the non-spendable forfeited ledger after this
  /// round: every clawed-back payment was committed at round start and is
  /// forfeited on an audit catch instead of returning to the spendable
  /// budget (escrow discipline — DESIGN.md §5.11).
  double forfeited_total = 0.0;
  sysmodel::BatchOutcome outcome;  // per-node detail (realized under faults:
                                   // deadline-cut times, delivery-only pay)
};

class EdgeLearnEnv {
 public:
  explicit EdgeLearnEnv(const EnvConfig& config);
  ~EdgeLearnEnv();

  /// Starts a new episode: fresh model, full budget, zeroed history.
  /// Device profiles persist across episodes (the node population is a
  /// fixed market the mechanism learns about). Returns the exterior state.
  /// An in-flight pipelined round is drained (and its record written)
  /// first.
  std::vector<float> reset();

  /// Executes round k with posted per-node prices.
  StepResult step(const std::vector<double>& prices);

  /// Result of one pipelined step (DESIGN.md §5.14). step_pipelined(k)
  /// commits, trains and settles round k, but defers its evaluation to a
  /// stage thread — round k's StepResult is returned by the NEXT call (in
  /// `prev`) or by drain(). When the commit aborts (overdraw), `abort`
  /// carries the discarded round's result and the episode is over; a
  /// still-in-flight previous round is finalized first, so `prev` may be
  /// valid in the same return.
  struct PipelinedStep {
    bool prev_valid = false;
    StepResult prev;   // round k-1, finalized by this call
    bool aborted = false;
    StepResult abort;  // the discarded attempt (aborted-round contract)
  };

  /// Pipelined variant of step(): overlaps round k-1's deferred
  /// evaluation with round k's commit + local training. Byte-identical
  /// results to step() — fixed hand-off points, no wall-clock scheduling;
  /// only the call that returns a given round's result changes.
  PipelinedStep step_pipelined(const std::vector<double>& prices);

  /// True while a pipelined round awaits finalization.
  bool has_pending() const { return pending_.valid; }

  /// Joins the stage thread and finalizes the in-flight round; its
  /// StepResult (and round record) are produced exactly as step() would
  /// have. Requires has_pending().
  StepResult drain();

  /// Exterior observation s^E_k (normalized): L rounds of (ζ, p, T) per
  /// node + remaining budget fraction + round index fraction.
  std::vector<float> exterior_state() const;

  std::int64_t exterior_state_dim() const;
  int num_nodes() const { return config_.num_nodes; }

  /// Σ_i saturation price — prices above this buy no extra speed, so the
  /// exterior action range is [0, price_cap()].
  double price_cap() const { return price_cap_; }
  /// Mean per-node saturation price (baseline per-node action cap).
  double per_node_price_cap(int i) const;

  /// Attaches a structured round logger (obs/round_log.h); every step —
  /// including aborted rounds — emits one RoundRecord. Non-owning; pass
  /// nullptr to detach. The sink must outlive the env or be detached
  /// first.
  void set_round_sink(obs::RoundSink* sink) { round_sink_ = sink; }

  /// 0-based episode index: how many reset() calls have completed, −1
  /// before the first. Stamped into round records.
  int episode() const { return episode_; }

  double budget_remaining() const { return budget_remaining_; }
  double budget_initial() const { return config_.budget; }
  /// Non-spendable ledger of audit-forfeited payments this episode: money
  /// committed at round start that an audit catch removed from circulation
  /// instead of refunding (DESIGN.md §5.11). Always ≥ 0, reset with the
  /// budget; budget_remaining + total spent + forfeited_total = η.
  double forfeited_total() const { return forfeited_total_; }
  /// Promised payment debited at commit and not yet settled. Non-zero only
  /// inside a step (between the commit and settle phases); callers
  /// observing the env between steps always see 0.
  double escrow_outstanding() const { return escrow_outstanding_; }
  int round() const { return round_; }
  double accuracy() const { return backend_->accuracy(); }
  bool done() const { return done_; }

  const EnvConfig& config() const { return config_; }
  const std::vector<sysmodel::DeviceProfile>& devices() const {
    return devices_;
  }

  /// Oracle helper (tests & ablations): proportions that equalize total
  /// times across nodes for a given total price, found numerically; the
  /// time-consistent allocation of Lemma 1.
  std::vector<double> equal_time_proportions(double total_price) const;

 private:
  /// Everything the commit phase hands to the train and settle phases:
  /// the partially filled result (offline/screening/churn counts), the
  /// round's decision batch (effective prices in its price column, the
  /// promised market in the rest) with its aggregates, and the drawn
  /// schedules. The training inputs live in `scratch_`. On an overdraw
  /// `aborted` is set and nothing was debited.
  struct CommitOut {
    bool aborted = false;
    StepResult res;
    std::shared_ptr<sysmodel::DecisionBatch> batch;
    sysmodel::RoundAggregates promised;
    /// True when a fault or a deadline can move a node off its promised
    /// time; scratch_.times then holds the realized times.
    bool timed = false;
    std::vector<adversary::AdversaryEvent> adv;  // empty unless active
    std::vector<faults::FaultEvent> events;      // empty unless faults on
    int planned_round = 0;   // round index the schedules were drawn for
    double p_posted = 0.0;   // Σ raw posted prices (the exterior action)
    double p_total = 0.0;    // Σ effective prices (the batch's price column)
    double budget_checkpoint = 0.0;  // budget before the escrow debit
  };

  /// Per-participant columns of the round being played, aligned with
  /// `participants`. Env-owned so their capacity carries over: after the
  /// first rounds a step grows none of them.
  struct RoundScratch {
    std::vector<int> participants;
    std::vector<double> weights;
    std::vector<fl::RoundDelivery> delivery;
    std::vector<double> times;       // realized times (timed rounds only)
    std::vector<std::uint8_t> paid;  // pay-on-delivery verdicts

    void resize(std::size_t count);
  };

  /// One settled-but-unfinalized round: the pipeline's hand-off token.
  /// Record/metric inputs are captured at settle because the live members
  /// (budget, round index, clawback totals) may belong to round k+1 by
  /// the time round k's record is written. The effective prices are the
  /// price column of `res.outcome.nodes`.
  struct PendingRound {
    bool valid = false;
    bool eval_pending = false;  // a stage-thread eval fills res.accuracy
    /// This round's deferred-eval job (frozen post-aggregate snapshot).
    /// Owned here — NOT by the backend — so the stage thread finishing
    /// round k never races round k+1's train() call.
    fl::DeferredEval eval;
    StepResult res;
    double p_total = 0.0;   // Σ effective (market) prices
    double p_posted = 0.0;  // Σ raw posted prices
    double budget_remaining = 0.0;
    double total_clawed_back = 0.0;
    double forfeited_total = 0.0;
    int round = 0;
  };

  /// Commit phase: draws this round's schedules (each only while its
  /// knobs are on), rejoins churned nodes, zeroes the prices of away,
  /// down and unavailable nodes, screens, runs the promised market on the
  /// plane, applies the overdraw-abort rule against the settled budget,
  /// debits the promised total into escrow and derives the training
  /// inputs.
  CommitOut commit_round(const std::vector<double>& prices);

  /// Settle phase: pays on delivery (with audits while the adversary or
  /// a defense is active) by realizing the batch in place — realized
  /// times written, unpaid payments zeroed — and re-aggregating it on the
  /// plane, so every round sums in the plane's one chunk order. Then it
  /// re-settles the budget from the commit checkpoint (realized +
  /// forfeited leave; undelivered escrow returns), writes the history
  /// block and decides `done`. Returns the pending round; its accuracy is
  /// final iff eval_pending is false.
  PendingRound settle_round(CommitOut c, const fl::TolerantRoundReport& rep,
                            bool eval_pending);

  /// A decision batch no StepResult or pending round still holds (the
  /// pool keeps at most one such spare), else a new one.
  std::shared_ptr<sysmodel::DecisionBatch> acquire_batch();

  /// Writes the settled round's normalized (ζ, p, T) block into the
  /// history ring, overwriting the oldest of the L blocks.
  void record_history(const sysmodel::DecisionBatch& batch);

  /// The shared round body of step() and step_pipelined(): commit, train
  /// and settle round k into the returned pending round. On an overdraw
  /// it instead finalizes the in-flight round k-1 (if any) into
  /// `out.prev`, writes the abort record, fills `out.abort` and returns
  /// an invalid round.
  PendingRound play_round(const std::vector<double>& prices,
                          PipelinedStep& out);

  /// Joins the in-flight round's evaluation and finalizes it into
  /// `out.prev`; no-op when nothing is in flight.
  void finish_prev(PipelinedStep& out);

  /// Finalize phase: consumes pending_ (whose accuracy must be final),
  /// computes the accuracy gain and rewards, and emits metrics + the
  /// round record from the captured settle-time values.
  StepResult finalize_pending();

  /// True when the adversary or any defense is on: commit draws the
  /// adversary schedule and settle audits and updates reputations. Also
  /// gates the adversary fields of the round log (zero-knob runs keep
  /// emitting byte-identical records).
  bool adversary_active() const {
    return config_.adversary.any() || config_.defense.any();
  }

  /// Observability tail: records the round's metrics and, when a sink is
  /// attached, writes the RoundRecord. All inputs are captured values —
  /// `p_total` is the effective (market) price sum, `p_posted` the raw
  /// posted action, `record_round` the 1-based round index to stamp.
  void emit_round(const StepResult& res, double p_total, double p_posted,
                  double budget_remaining, double total_clawed_back,
                  double forfeited_total, int record_round);

  EnvConfig config_;
  Rng rng_;
  std::vector<sysmodel::DeviceProfile> devices_;
  /// Profiles as sampled at construction; reset() restores them so churn
  /// resamples from an identical market every episode.
  std::vector<sysmodel::DeviceProfile> base_devices_;
  /// SoA economics plane over devices_ (the market of every round;
  /// DESIGN.md §5.12) and the pool of decision batches the rounds are
  /// played in. A batch is free when only the pool holds it.
  std::unique_ptr<sysmodel::EconomicsPlane> plane_;
  std::vector<std::shared_ptr<sysmodel::DecisionBatch>> batches_;
  RoundScratch scratch_;
  std::unique_ptr<AccuracyBackend> backend_;
  std::unique_ptr<faults::FaultPlan> fault_plan_;
  std::unique_ptr<adversary::AdversaryPlan> adversary_plan_;
  std::unique_ptr<adversary::ReputationLedger> reputation_;
  double price_cap_ = 0.0;
  double price_norm_ = 1.0;  // per-node price normalizer for states

  obs::RoundSink* round_sink_ = nullptr;  // non-owning, may be null

  // Episode state.
  double budget_remaining_ = 0.0;
  int episode_ = -1;
  int round_ = 0;
  bool done_ = true;
  double last_accuracy_ = 0.0;
  double total_clawed_back_ = 0.0;  // cumulative audited clawbacks (episode)
  double forfeited_total_ = 0.0;    // non-spendable forfeited ledger (episode)
  double escrow_outstanding_ = 0.0;  // committed, unsettled promised payment
  /// History ring of L blocks of 3N floats, each one settled round's
  /// exterior-state block (ζ_i/ζ_hi, p_i/price_norm, T_i/time_norm per
  /// node), normalized once when the round settles.
  std::vector<float> history_;
  int history_len_ = 0;   // blocks written this episode, at most L
  int history_next_ = 0;  // block the next settled round overwrites

  PendingRound pending_;  // settled round awaiting finalize (pipeline mode)
  /// Stage thread for deferred evaluations; lazily created by the first
  /// step_pipelined. Declared last so it is destroyed (and joined) before
  /// the backend and pending state its in-flight task touches.
  std::unique_ptr<runtime::RoundPipeline> pipeline_;
};

}  // namespace chiron::core
