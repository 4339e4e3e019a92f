// HierarchicalMechanism — Chiron itself (paper §V, Algorithm 1).
//
// Two PPO agents in the parameter server:
//   exterior: s^E (history + budget + round) → total price p_total,k
//   inner:    s^I = p_total,k               → allocation proportions pr_i,k
// Per round, prices p_i = p_total · pr_i are posted; at episode end (budget
// exhausted) both agents run M PPO epochs over their episode buffers and
// the buffers are cleared, exactly as Algorithm 1 lines 17–27.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/actions.h"
#include "core/episode.h"
#include "rl/ppo.h"

namespace chiron::nn {
class CheckpointReader;
class CheckpointWriter;
}  // namespace chiron::nn

namespace chiron::runtime {
class RoundPipeline;
}  // namespace chiron::runtime

namespace chiron::core {

struct ChironConfig {
  int episodes = 500;          // paper §VI-A
  std::int64_t hidden = 64;
  // Practical defaults for the reduced-episode regime used by tests and
  // benches; the paper's settings (3e-5, decaying ×0.95 / 20 episodes)
  // are restored by paper_scale_config().
  double actor_lr = 1e-3;
  double critic_lr = 1e-3;
  double lr_decay = 0.95;
  int lr_decay_every = 20;
  double gamma = 0.95;         // paper §VI-A
  double gae_lambda = 0.95;
  int update_epochs = 10;      // M in Algorithm 1
  /// Episodes aggregated into one PPO batch. Algorithm 1 updates after
  /// every episode; with tight budgets an episode can be only 2–4 rounds,
  /// and single-episode batches are too high-variance to learn from —
  /// batching a few episodes keeps updates on-policy but stable.
  int episodes_per_update = 5;
  double clip_ratio = 0.2;
  double entropy_coef = 1e-3;
  float init_log_std = -0.5f;
  // Inner-agent overrides (0 / negative = inherit the shared values). The
  // inner problem — a low-dimensional static mapping from total price to
  // proportions — tolerates a hotter learning rate and less exploration
  // noise than the exterior budget-pacing problem.
  double inner_actor_lr = 3e-3;
  double inner_critic_lr = 3e-3;
  float inner_init_log_std = -1.0f;
  /// The inner objective (Eqn 15, time consistency) is the paper's
  /// *short-term* goal: each round's idle time depends only on that
  /// round's allocation, so the inner agent receives myopic credit.
  double inner_gamma = 0.0;
  /// Exterior advantages are NOT re-normalized per episode: episodes can
  /// be very short (a handful of expensive rounds), and per-episode
  /// standardization erases the signal that one episode beat another.
  bool normalize_exterior_advantages = false;
  bool normalize_inner_advantages = true;
  std::uint64_t seed = 7;
  /// Ablation: replace the inner agent with the Lemma-1 equal-time oracle.
  bool oracle_inner = false;
  /// Ablation: no inner agent at all — the total price is split uniformly.
  bool uniform_inner = false;
};

/// The paper's hyperparameters (§VI-A) verbatim.
ChironConfig paper_scale_config();

/// Self-describing config header written ahead of the four parameter
/// blocks of a mechanism checkpoint (format v2). It lets loaders — the
/// mechanism itself and the serving engine, which has no env — validate
/// or construct the right network shapes *before* touching tensor code,
/// so a mismatched file fails with a named dimension instead of a block-
/// size assert deep in set_flat_params.
struct MechanismCheckpointInfo {
  std::int64_t exterior_obs_dim = 0;  // env.exterior_state_dim()
  std::int64_t num_nodes = 0;         // inner agent's action dim
  std::int64_t hidden = 0;            // MLP width of all four nets
  double price_cap = 0.0;             // env.price_cap() at save time
};

/// Checkpoint format version stamped into the header; bumped whenever the
/// header or block layout changes.
inline constexpr double kMechanismCheckpointVersion = 2.0;

void write_mechanism_header(nn::CheckpointWriter& w,
                            const MechanismCheckpointInfo& info);

/// Reads and validates the header, leaving the reader positioned at the
/// first parameter block. Throws InvariantError with a clear message on
/// headerless (pre-v2), wrong-version, or truncated checkpoints.
MechanismCheckpointInfo read_mechanism_header(nn::CheckpointReader& r);

class HierarchicalMechanism {
 private:
  /// Everything the agents decided for one round: the states both acted
  /// on, their raw actions, and the posted prices. Kept while the round
  /// is in flight so its transition can be recorded once its result
  /// arrives.
  struct RoundAction {
    std::vector<float> s_ext;
    std::vector<float> s_inner;
    rl::ActResult ext;
    rl::ActResult inner;
    std::vector<double> prices;
  };

 public:
  /// Chiron's pricing rule (Algorithm 1 lines 5–9) over this mechanism's
  /// agents, drawing from `rng` (both must outlive it). With `learn` it
  /// records each executed round's transitions and runs the episode-end
  /// learning tail (lines 17–27); without, it replays the current policy.
  /// Pipelinable: act() reads only the env's exterior state.
  class Policy final : public PricingPolicy {
   public:
    Policy(HierarchicalMechanism& mech, Rng& rng, bool learn = false,
           bool stochastic = true)
        : mech_(mech), rng_(rng), learn_(learn), stochastic_(stochastic) {}

    bool pipelinable() const override { return true; }
    void begin_episode(const EdgeLearnEnv& env) override;
    std::vector<double> act(const EdgeLearnEnv& env) override;
    void observe(const StepResult& res) override;
    void end_episode(const EpisodeStats& stats, bool pipelined) override;

   private:
    HierarchicalMechanism& mech_;
    Rng& rng_;
    bool learn_;
    bool stochastic_;
    /// Posted, not yet observed rounds (learn only; at most two).
    std::deque<RoundAction> in_flight_;
  };

  /// `env` must outlive the mechanism.
  HierarchicalMechanism(EdgeLearnEnv& env, const ChironConfig& config);
  ~HierarchicalMechanism();

  /// Trains for config.episodes (or `episodes` if >= 0) and returns the
  /// per-episode stats in order.
  std::vector<EpisodeStats> train(int episodes = -1);

  /// Evaluates the trained policy: mean stats over `episodes` stochastic
  /// rollouts with learning disabled. (Stochastic, because the behaviour
  /// policy is what interacts with the market; the deterministic mean
  /// passes through the sigmoid/softmax squashes to a different operating
  /// point.)
  EpisodeStats evaluate(int episodes = 5);

  /// One episode of Policy(*this, own rng, learn, stochastic): learn=true
  /// stores transitions and updates at the end, stochastic=true samples
  /// actions (otherwise uses policy means). When
  /// runtime::pipeline_enabled() the episode runs the double-buffered
  /// round pipeline (DESIGN.md §5.14): byte-identical transitions, stats
  /// and logs, with round k-1's evaluation and the end-of-batch PPO update
  /// hidden behind round k's training / the next episode's reset.
  EpisodeStats run_episode(bool learn, bool stochastic);

  rl::PpoAgent& exterior_agent() { return exterior_; }
  rl::PpoAgent& inner_agent() { return inner_; }

  /// Checkpoints both agents' actor+critic parameters to one binary file;
  /// load() restores them into a mechanism built with identical env/config
  /// shapes (block sizes are validated).
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  /// Runs both agents (and the oracle/uniform ablations) on `env`'s
  /// exterior state exactly as Algorithm 1 does per round; consumes `rng`
  /// in the fixed order.
  RoundAction select_action(const EdgeLearnEnv& env, bool stochastic,
                            Rng& rng);

  /// Records one executed round's transitions into the episode buffers.
  void record_transitions(RoundAction&& act, const StepResult& res);

  /// Episode-end learning tail (Algorithm 1 lines 17–27). With `deferred`
  /// the PPO updates of a due batch run on the stage thread, overlapping
  /// the next episode's env reset; join_pending_update() fences them.
  void learn_from_episode(const EpisodeStats& stats, bool deferred);

  /// Joins a deferred PPO update (no-op when none is pending). Must run
  /// before anything touches the agents: act/evaluate, save/load, decay.
  void join_pending_update();

  EdgeLearnEnv& env_;
  ChironConfig config_;
  Rng rng_;
  rl::PpoAgent exterior_;
  rl::PpoAgent inner_;
  rl::RolloutBuffer ext_buffer_;
  rl::RolloutBuffer inner_buffer_;
  int episodes_done_ = 0;
  bool update_pending_ = false;  // a PPO update is on the stage thread
  /// Stage thread for deferred PPO updates; lazily created. Declared last
  /// so it joins before the agents and buffers its task touches die.
  std::unique_ptr<runtime::RoundPipeline> pipeline_;
};

}  // namespace chiron::core
