#include "core/mechanism.h"

#include "common/error.h"
#include "nn/serialize.h"
#include "runtime/pipeline.h"

namespace chiron::core {

namespace {

rl::PpoConfig agent_config(const ChironConfig& c, std::int64_t obs_dim,
                           std::int64_t act_dim, bool inner = false) {
  rl::PpoConfig p;
  p.obs_dim = obs_dim;
  p.act_dim = act_dim;
  p.hidden = c.hidden;
  p.actor_lr = c.actor_lr;
  p.critic_lr = c.critic_lr;
  p.clip_ratio = c.clip_ratio;
  p.gamma = c.gamma;
  p.gae_lambda = c.gae_lambda;
  p.update_epochs = c.update_epochs;
  p.entropy_coef = c.entropy_coef;
  p.init_log_std = c.init_log_std;
  if (inner) {
    if (c.inner_actor_lr > 0.0) p.actor_lr = c.inner_actor_lr;
    if (c.inner_critic_lr > 0.0) p.critic_lr = c.inner_critic_lr;
    p.init_log_std = c.inner_init_log_std;
    p.gamma = c.inner_gamma;
  }
  return p;
}

}  // namespace

void write_mechanism_header(nn::CheckpointWriter& w,
                            const MechanismCheckpointInfo& info) {
  w.write_meta({kMechanismCheckpointVersion,
                static_cast<double>(info.exterior_obs_dim),
                static_cast<double>(info.num_nodes),
                static_cast<double>(info.hidden), info.price_cap});
}

MechanismCheckpointInfo read_mechanism_header(nn::CheckpointReader& r) {
  std::vector<double> meta;
  try {
    meta = r.read_meta(5);
  } catch (const InvariantError& e) {
    CHIRON_CHECK_MSG(false,
                     "mechanism checkpoint has no config header — pre-v2 "
                     "file or not a mechanism checkpoint ("
                         << e.what() << ")");
  }
  CHIRON_CHECK_MSG(meta[0] == kMechanismCheckpointVersion,
                   "unsupported mechanism checkpoint format version "
                       << meta[0] << " (this build reads version "
                       << kMechanismCheckpointVersion << ")");
  MechanismCheckpointInfo info;
  info.exterior_obs_dim = static_cast<std::int64_t>(meta[1]);
  info.num_nodes = static_cast<std::int64_t>(meta[2]);
  info.hidden = static_cast<std::int64_t>(meta[3]);
  info.price_cap = meta[4];
  CHIRON_CHECK_MSG(info.exterior_obs_dim > 0 && info.num_nodes > 0 &&
                       info.hidden > 0 && info.price_cap > 0.0,
                   "mechanism checkpoint header carries non-positive dims "
                   "— corrupt file");
  return info;
}

ChironConfig paper_scale_config() {
  ChironConfig c;
  c.episodes = 500;
  c.actor_lr = 3e-5;
  c.critic_lr = 3e-5;
  c.lr_decay = 0.95;
  c.lr_decay_every = 20;
  c.gamma = 0.95;
  return c;
}

HierarchicalMechanism::HierarchicalMechanism(EdgeLearnEnv& env,
                                             const ChironConfig& config)
    : env_(env),
      config_(config),
      rng_(config.seed),
      exterior_(agent_config(config, env.exterior_state_dim(), 1), rng_),
      inner_(agent_config(config, 1, env.num_nodes(), /*inner=*/true), rng_),
      ext_buffer_(env.exterior_state_dim(), 1),
      inner_buffer_(1, env.num_nodes()) {
  CHIRON_CHECK(config_.episodes >= 1);
}

HierarchicalMechanism::~HierarchicalMechanism() = default;

std::vector<EpisodeStats> HierarchicalMechanism::train(int episodes) {
  Policy policy(*this, rng_, /*learn=*/true);
  std::vector<EpisodeStats> out = run_episodes(
      env_, policy, episodes >= 0 ? episodes : config_.episodes);
  // Callers read the agents (evaluate, save, …) after train() returns;
  // nothing may still be mutating them on the stage thread.
  join_pending_update();
  return out;
}

EpisodeStats HierarchicalMechanism::evaluate(int episodes) {
  Policy policy(*this, rng_);
  return mean_stats(run_episodes(env_, policy, episodes));
}

EpisodeStats HierarchicalMechanism::run_episode(bool learn, bool stochastic) {
  Policy policy(*this, rng_, learn, stochastic);
  return play_episode(env_, policy);
}

void HierarchicalMechanism::save(const std::string& path) {
  join_pending_update();
  nn::CheckpointWriter w(path);
  MechanismCheckpointInfo info;
  info.exterior_obs_dim = env_.exterior_state_dim();
  info.num_nodes = env_.num_nodes();
  info.hidden = config_.hidden;
  info.price_cap = env_.price_cap();
  write_mechanism_header(w, info);
  w.write_block(nn::get_flat_params(exterior_.policy().params()));
  w.write_block(nn::get_flat_params(exterior_.critic().params()));
  w.write_block(nn::get_flat_params(inner_.policy().params()));
  w.write_block(nn::get_flat_params(inner_.critic().params()));
}

void HierarchicalMechanism::load(const std::string& path) {
  join_pending_update();
  nn::CheckpointReader r(path);
  const MechanismCheckpointInfo info = read_mechanism_header(r);
  CHIRON_CHECK_MSG(info.exterior_obs_dim == env_.exterior_state_dim(),
                   "checkpoint exterior obs dim "
                       << info.exterior_obs_dim << " != mechanism's "
                       << env_.exterior_state_dim()
                       << " — saved with different num_nodes/history?");
  CHIRON_CHECK_MSG(info.num_nodes == env_.num_nodes(),
                   "checkpoint num_nodes " << info.num_nodes
                                           << " != mechanism's "
                                           << env_.num_nodes());
  CHIRON_CHECK_MSG(info.hidden == config_.hidden,
                   "checkpoint hidden width " << info.hidden
                                              << " != mechanism's "
                                              << config_.hidden);
  CHIRON_CHECK_MSG(info.price_cap == env_.price_cap(),
                   "checkpoint price cap "
                       << info.price_cap << " != this market's "
                       << env_.price_cap()
                       << " — the mechanism was trained for a different "
                          "device population");
  auto restore = [&r](std::vector<nn::Param*> params) {
    const std::size_t n = static_cast<std::size_t>(
        nn::parameter_count(params));
    nn::set_flat_params(params, r.read_block(n));
  };
  restore(exterior_.policy().params());
  restore(exterior_.critic().params());
  restore(inner_.policy().params());
  restore(inner_.critic().params());
  r.expect_eof();  // trailing garbage means this is not our checkpoint
}

HierarchicalMechanism::RoundAction HierarchicalMechanism::select_action(
    const EdgeLearnEnv& env, bool stochastic, Rng& rng) {
  RoundAction act;
  act.s_ext = env.exterior_state();
  // Exterior agent: total price.
  if (stochastic) {
    act.ext = exterior_.act(act.s_ext, rng);
  } else {
    act.ext.action = exterior_.act_mean(act.s_ext);
  }
  const double p_total = map_total_price(act.ext.action[0], env.price_cap());

  // Inner agent: allocation proportions. Its state is the (normalized)
  // exterior action, per §V-A.
  act.s_inner = {static_cast<float>(p_total / env.price_cap())};
  std::vector<double> proportions;
  if (config_.uniform_inner) {
    proportions.assign(static_cast<std::size_t>(env.num_nodes()),
                       1.0 / env.num_nodes());
  } else if (config_.oracle_inner) {
    proportions = env.equal_time_proportions(std::max(p_total, 1e-9));
  } else if (stochastic) {
    act.inner = inner_.act(act.s_inner, rng);
    proportions = map_proportions(act.inner.action);
  } else {
    act.inner.action = inner_.act_mean(act.s_inner);
    proportions = map_proportions(act.inner.action);
  }
  act.prices = combine_prices(p_total, proportions);
  return act;
}

void HierarchicalMechanism::record_transitions(RoundAction&& act,
                                               const StepResult& res) {
  rl::Transition te;
  te.obs = std::move(act.s_ext);
  te.action = act.ext.action;
  te.log_prob = act.ext.log_prob;
  te.reward = static_cast<float>(res.reward_exterior);
  te.value = act.ext.value;
  ext_buffer_.add(std::move(te));
  if (!config_.oracle_inner && !config_.uniform_inner) {
    rl::Transition ti;
    ti.obs = std::move(act.s_inner);
    ti.action = act.inner.action;
    ti.log_prob = act.inner.log_prob;
    ti.reward = static_cast<float>(res.reward_inner);
    ti.value = act.inner.value;
    inner_buffer_.add(std::move(ti));
  }
}

void HierarchicalMechanism::learn_from_episode(const EpisodeStats& stats,
                                               bool deferred) {
  if (stats.rounds > 0) {
    ext_buffer_.end_episode(config_.gamma, config_.gae_lambda);
    if (!config_.oracle_inner && !config_.uniform_inner) {
      inner_buffer_.end_episode(config_.inner_gamma, config_.gae_lambda);
    }
  }
  ++episodes_done_;
  const bool update_due =
      episodes_done_ % std::max(config_.episodes_per_update, 1) == 0;
  const bool decay_due = config_.lr_decay_every > 0 &&
                         episodes_done_ % config_.lr_decay_every == 0;
  if (update_due) {
    const bool use_inner = !config_.oracle_inner && !config_.uniform_inner;
    auto run_updates = [this, use_inner] {
      if (ext_buffer_.size() > 0) {
        ext_buffer_.finalize(config_.normalize_exterior_advantages);
        exterior_.update(ext_buffer_);
      }
      ext_buffer_.clear();
      if (use_inner) {
        if (inner_buffer_.size() > 0) {
          inner_buffer_.finalize(config_.normalize_inner_advantages);
          inner_.update(inner_buffer_);
        }
        inner_buffer_.clear();
      }
    };
    if (deferred && !decay_due) {
      // PPO touches only the agents' nets and the episode buffers — both
      // idle until the next act — and consumes no RNG, so the update can
      // overlap the next episode's env reset (the backend rebuild).
      // When a decay is also due this episode it must order after the
      // update, so that rare episode (every lr_decay_every) runs inline.
      if (pipeline_ == nullptr)
        pipeline_ = std::make_unique<runtime::RoundPipeline>();
      pipeline_->submit(run_updates);
      update_pending_ = true;
    } else {
      run_updates();
    }
  }
  if (decay_due) {
    exterior_.decay_lr(config_.lr_decay);
    inner_.decay_lr(config_.lr_decay);
  }
}

void HierarchicalMechanism::join_pending_update() {
  if (!update_pending_) return;
  pipeline_->join();
  update_pending_ = false;
}

void HierarchicalMechanism::Policy::begin_episode(const EdgeLearnEnv&) {
  // A PPO update deferred by the previous episode overlapped this
  // episode's reset; it must land before the first act.
  mech_.join_pending_update();
}

std::vector<double> HierarchicalMechanism::Policy::act(
    const EdgeLearnEnv& env) {
  RoundAction a = mech_.select_action(env, stochastic_, rng_);
  std::vector<double> prices = std::move(a.prices);
  if (learn_) {
    CHIRON_CHECK(in_flight_.size() < 2);  // at most one round in flight
    in_flight_.push_back(std::move(a));
  }
  return prices;
}

void HierarchicalMechanism::Policy::observe(const StepResult& res) {
  if (!learn_) return;
  mech_.record_transitions(std::move(in_flight_.front()), res);
  in_flight_.pop_front();
}

void HierarchicalMechanism::Policy::end_episode(const EpisodeStats& stats,
                                                bool pipelined) {
  in_flight_.clear();  // an aborted round's context is discarded
  if (learn_) mech_.learn_from_episode(stats, /*deferred=*/pipelined);
}

}  // namespace chiron::core
