#include "baselines/single_drl.h"

#include "common/error.h"
#include "core/actions.h"

namespace chiron::baselines {

SingleAgentDrlMechanism::SingleAgentDrlMechanism(
    EdgeLearnEnv& env, const SingleDrlConfig& config)
    : env_(env),
      config_(config),
      rng_(config.seed),
      agent_(
          [&] {
            rl::PpoConfig p;
            p.obs_dim = 3 * env.num_nodes();
            p.act_dim = env.num_nodes();
            p.hidden = config.hidden;
            p.actor_lr = config.actor_lr;
            p.critic_lr = config.critic_lr;
            p.clip_ratio = config.clip_ratio;
            p.gamma = config.gamma;
            p.gae_lambda = config.gae_lambda;
            p.update_epochs = config.update_epochs;
            p.entropy_coef = config.entropy_coef;
            p.init_log_std = config.init_log_std;
            return p;
          }(),
          rng_),
      buffer_(3 * env.num_nodes(), env.num_nodes()) {
  CHIRON_CHECK(config_.episodes >= 1);
  last_profile_.assign(static_cast<std::size_t>(3 * env.num_nodes()), 0.f);
}

std::vector<EpisodeStats> SingleAgentDrlMechanism::train(int episodes) {
  learn_ = true;
  return core::run_episodes(env_, *this,
                            episodes >= 0 ? episodes : config_.episodes);
}

EpisodeStats SingleAgentDrlMechanism::evaluate(int episodes) {
  learn_ = false;
  return core::mean_stats(core::run_episodes(env_, *this, episodes));
}

void SingleAgentDrlMechanism::begin_episode(const EdgeLearnEnv&) {
  last_profile_.assign(last_profile_.size(), 0.f);
}

std::vector<double> SingleAgentDrlMechanism::act(const EdgeLearnEnv& env) {
  rl::ActResult a = agent_.act(last_profile_, rng_);
  // Per-node price: sigmoid of the raw action scaled by that node's
  // saturation price.
  std::vector<double> prices(static_cast<std::size_t>(env.num_nodes()));
  for (int i = 0; i < env.num_nodes(); ++i) {
    prices[static_cast<std::size_t>(i)] =
        core::sigmoid(a.action[static_cast<std::size_t>(i)]) *
        env.per_node_price_cap(i);
  }
  pending_.obs = last_profile_;
  pending_.action = std::move(a.action);
  pending_.log_prob = a.log_prob;
  pending_.value = a.value;
  return prices;
}

void SingleAgentDrlMechanism::observe(const core::StepResult& res) {
  const double time_norm = env_.config().time_norm;
  if (learn_) {
    // Myopic reward: time + weighted energy, no accuracy, no budget.
    pending_.reward = static_cast<float>(
        -(res.round_time + config_.energy_weight * res.outcome.total_energy) /
        time_norm);
    buffer_.add(std::move(pending_));
  }
  // Refresh the myopic observation from the executed round.
  const double zeta_norm = env_.config().population.zeta_max_hi;
  for (int i = 0; i < env_.num_nodes(); ++i) {
    const auto& nd = res.outcome.nodes[static_cast<std::size_t>(i)];
    const std::size_t base = static_cast<std::size_t>(3 * i);
    last_profile_[base + 0] = static_cast<float>(nd.zeta / zeta_norm);
    last_profile_[base + 1] = static_cast<float>(
        nd.price / std::max(env_.per_node_price_cap(i), 1e-12));
    last_profile_[base + 2] = static_cast<float>(nd.total_time / time_norm);
  }
}

void SingleAgentDrlMechanism::end_episode(const EpisodeStats& stats, bool) {
  if (!learn_) return;
  if (stats.rounds > 0) buffer_.end_episode(config_.gamma, config_.gae_lambda);
  ++episodes_done_;
  if (episodes_done_ % std::max(config_.episodes_per_update, 1) == 0) {
    if (buffer_.size() > 0) {
      buffer_.finalize(/*normalize=*/true);
      agent_.update(buffer_);
    }
    buffer_.clear();
  }
  if (config_.lr_decay_every > 0 &&
      episodes_done_ % config_.lr_decay_every == 0) {
    agent_.decay_lr(config_.lr_decay);
  }
}

}  // namespace chiron::baselines
