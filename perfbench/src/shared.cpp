#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "workloads.h"

namespace perfbench {

using chiron::core::EdgeLearnEnv;

std::string EconomicsCheck::ledger(const EdgeLearnEnv& env, double budget,
                                   double forfeited) const {
  const double tol = 1e-9 * std::max(eta_, 1.0);
  std::ostringstream why;
  if (env.escrow_outstanding() != 0.0) {
    why << "escrow outstanding between steps: " << env.escrow_outstanding();
  } else if (budget < -tol) {
    why << "budget overdrawn: " << budget;
  } else if (std::fabs(budget + spent_ + forfeited - eta_) > tol) {
    why.precision(17);
    why << "budget ledger broken: " << budget << " + " << spent_ << " + "
        << forfeited << " != " << eta_;
  }
  return why.str();
}

std::string EconomicsCheck::after_step(const EdgeLearnEnv& env,
                                       const chiron::core::StepResult& r) {
  if (!r.aborted) spent_ += r.payment;
  // An aborted round's result is zeroed (env.h): read the live ledger.
  std::string why = ledger(env, env.budget_remaining(),
                           r.aborted ? env.forfeited_total() : r.forfeited_total);
  if (!why.empty() || r.aborted) return why;
  int paid = 0;
  for (const auto& n : r.outcome.nodes) {
    if (n.payment <= 0.0) continue;
    ++paid;
    if (!n.participates) return "a node is paid without participating";
  }
  if (paid != r.delivered - r.flagged) {
    std::ostringstream os;
    os << "paid nodes " << paid << " != delivered " << r.delivered
       << " - flagged " << r.flagged;
    return os.str();
  }
  return "";
}

std::string EconomicsCheck::after_record(const EdgeLearnEnv& env,
                                         const chiron::obs::RoundRecord& r) {
  if (!r.aborted) spent_ += r.payment;
  std::string why =
      r.aborted ? ledger(env, env.budget_remaining(), env.forfeited_total())
                : ledger(env, r.budget_remaining, r.forfeited_total);
  if (!why.empty() || r.aborted) return why;
  int paid = 0;
  for (std::size_t i = 0; i < r.node_payments.size(); ++i) {
    if (r.node_payments[i] <= 0.0) continue;
    ++paid;
    if (!r.node_participates[i]) return "a node is paid without participating";
  }
  if (paid != r.delivered - r.flagged) {
    std::ostringstream os;
    os << "paid nodes " << paid << " != delivered " << r.delivered
       << " - flagged " << r.flagged;
    return os.str();
  }
  return "";
}

namespace {
constexpr double kLevels[] = {0.45, 0.60, 0.50, 0.70, 0.40, 0.55, 0.65, 0.50};
}  // namespace

PricePool make_price_pool(const EdgeLearnEnv& env, std::uint64_t seed) {
  chiron::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<double> cap(static_cast<std::size_t>(env.num_nodes()));
  for (int i = 0; i < env.num_nodes(); ++i)
    cap[static_cast<std::size_t>(i)] = env.per_node_price_cap(i);
  PricePool pool;
  for (double level : kLevels) {
    std::vector<double> p(cap.size());
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = level * cap[i] * rng.uniform(0.9, 1.1);
    pool.push_back(std::move(p));
  }
  return pool;
}

const std::vector<double>& scheduled_prices(const PricePool& pool,
                                            int episode, int round) {
  return pool[static_cast<std::size_t>(round + 3 * episode) % pool.size()];
}

std::string check_utility_ledger(const Options& opt, const std::string& tag,
                                 double utility) {
  const std::string path = opt.out_dir + "/utility_ledger.tsv";
  char mine[64];
  std::snprintf(mine, sizeof mine, "%.17g", utility);
  std::ifstream in(path);
  const std::string key = opt.workload + "." + tag;
  std::string wl, build, value;
  std::uint64_t seed = 0;
  while (in >> wl >> seed >> build >> value) {
    if (wl == key && seed == opt.seed && build == opt.build_id &&
        value != mine) {
      return "utility " + std::string(mine) + " differs from an earlier run "
             "of the same seed and build (" + value + ")";
    }
  }
  std::ofstream out(path, std::ios::app);
  out << key << "\t" << opt.seed << "\t" << opt.build_id << "\t"
      << mine << "\n";
  return "";
}

}  // namespace perfbench
