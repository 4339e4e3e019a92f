// The four benchmark workloads and the checks they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/env.h"
#include "obs/round_log.h"
#include "trace.h"

namespace perfbench {

void run_train_cnn(const Options& opt, Result& res, Tracer& tracer);
/// market_100k (adversarial = false) and market_adv_10k.
void run_market(const Options& opt, Result& res, Tracer& tracer,
                bool adversarial);
void run_serve(const Options& opt, Result& res, Tracer& tracer);

/// Economics invariants of every settled round (DESIGN.md §5.14):
///   budget_remaining + Σ payments + forfeited_total == η,
///   no escrow outstanding between steps, the budget never overdrawn,
///   and paid ⇒ delivered ∧ ¬flagged (paid nodes == delivered − flagged).
/// Returns an empty string or the violated invariant.
class EconomicsCheck {
 public:
  explicit EconomicsCheck(double eta) : eta_(eta) {}
  void new_episode() { spent_ = 0.0; }
  std::string after_step(const chiron::core::EdgeLearnEnv& env,
                         const chiron::core::StepResult& r);
  std::string after_record(const chiron::core::EdgeLearnEnv& env,
                           const chiron::obs::RoundRecord& r);

 private:
  std::string ledger(const chiron::core::EdgeLearnEnv& env, double budget,
                     double forfeited) const;

  double eta_;
  double spent_ = 0.0;
};

/// Cross-run determinism ledger: the utility named `tag` of (workload,
/// seed) must repeat exactly on every run of one build. Returns an empty
/// string or the mismatch.
std::string check_utility_ledger(const Options& opt, const std::string& tag,
                                 double utility);

/// Seeded price schedule of the market and serve workloads: slot j posts
/// a fixed share of each node's saturation price with a seeded ±10%
/// per-node jitter. The shares are the same for every seed, so the spend
/// per round, and so the episode length, does not move with the seed.
using PricePool = std::vector<std::vector<double>>;
PricePool make_price_pool(const chiron::core::EdgeLearnEnv& env,
                          std::uint64_t seed);
/// Prices of round `round` of episode `episode`.
const std::vector<double>& scheduled_prices(const PricePool& pool,
                                            int episode, int round);

/// Seed of a different-input instance used by the seed-sensitivity
/// checks (the fingerprint of this seed must differ from it).
inline std::uint64_t other_seed(std::uint64_t seed) {
  return seed ^ 0x5bd1e995u;
}

/// Set-up, timed `reps` times per run (the median is returned): rep 1
/// builds a different seed, every other rep the run seed. The same-seed
/// fingerprints must agree and the other seed's must differ, so the seed
/// really changes the inputs. The last instance is kept in `keep`.
template <class Instance, class Build>
double timed_setup(const Options& opt, Result& res, int reps, Build build,
                   Instance& keep) {
  std::vector<double> t, fp;
  for (int r = 0; r < reps; ++r) {
    const auto a = Clock::now();
    Instance next = build(r == 1 ? other_seed(opt.seed) : opt.seed);
    t.push_back(seconds_between(a, Clock::now()));
    fp.push_back(next.fingerprint);
    keep = std::move(next);  // frees the previous instance, untimed
  }
  if (fp[0] != fp.back())
    res.fail_check(opt.workload + ": the same seed gave different inputs");
  if (fp[0] == fp[1])
    res.fail_check(opt.workload + ": the seed does not change the inputs");
  return quantile(t, 0.5);
}

}  // namespace perfbench
