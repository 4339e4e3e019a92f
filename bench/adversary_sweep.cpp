// Adversary-fraction sweep: how much server utility strategic nodes
// destroy, and how much of it the mechanism defenses buy back.
//
// The full Chiron stack is trained once on the honest market; the same
// policy is then replay-evaluated on markets where a growing fraction of
// nodes misreports costs, free-rides and churns (src/adversary), with the
// defenses (delivered-accuracy audits + clawback, reputation-weighted
// aggregation) off and on. Reports per cell the mean episode server
// utility Σ_k (λΔA − T_k), the mechanism regret against the honest run,
// and — for defended cells — the share of that regret the defenses
// recover. Rows land in BENCH_substrate.json via tools/bench_substrate.sh.
#include <algorithm>
#include <iostream>

#include "common/csv.h"
#include "harness_common.h"

using namespace chiron;

namespace {

struct CellResult {
  double utility = 0.0;  // mean per-episode Σ_k (λΔA − T_k)
  double accuracy = 0.0;
  double rounds = 0.0;
  double spent = 0.0;
  // Totals across the evaluation episodes.
  int flagged = 0;
  double clawed_back = 0.0;
  int freeriding = 0;
  int misreporting = 0;
};

/// Deterministic replay evaluation of the trained policy on one market
/// configuration. The agent RNG is seeded identically per cell, so cells
/// differ only through the market itself — a paired comparison.
CellResult eval_cell(core::HierarchicalMechanism& mech,
                     const core::EnvConfig& cfg, obs::RoundSink* sink,
                     int episodes, std::uint64_t rng_seed) {
  core::EdgeLearnEnv env(cfg);
  env.set_round_sink(sink);
  CellResult r;
  Rng rng(rng_seed);
  core::HierarchicalMechanism::Policy replay(mech, rng);
  for (int e = 0; e < episodes; ++e) {
    core::play_episode(env, replay, [&r](const core::StepResult& res) {
      r.utility += res.raw_exterior_reward;
      r.rounds += 1.0;
      r.flagged += res.flagged;
      r.clawed_back += res.clawed_back;
      r.freeriding += res.freeriding;
      r.misreporting += res.misreporting;
    });
    r.accuracy += env.accuracy();
    r.spent += cfg.budget - env.budget_remaining();
  }
  const double n = static_cast<double>(episodes);
  r.utility /= n;
  r.accuracy /= n;
  r.rounds /= n;
  r.spent /= n;
  return r;
}

}  // namespace

static int run(int argc, char** argv) {
  bench::HarnessOptions opt = bench::read_options(argc, argv);
  bench::ObsSession obs_session(opt);

  // Train once on the clean honest market; the sweep measures damage and
  // recovery under that fixed policy, so any --adv-*/--defense overrides
  // from the caller are cleared here and reapplied per cell below. Ten
  // nodes give the Bernoulli trait draw enough granularity to separate
  // the sweep's fractions.
  core::EnvConfig honest_cfg =
      bench::make_market(data::VisionTask::kMnistLike, 10, 80.0, opt);
  honest_cfg.adversary = adversary::AdversaryConfig{};
  honest_cfg.adversary.seed = opt.seed + 104729;
  honest_cfg.defense = adversary::DefenseConfig{};
  honest_cfg.defense.seed = opt.seed + 1299709;

  std::cerr << "[adversary_sweep] training on the honest market...\n";
  core::EdgeLearnEnv honest_env(honest_cfg);
  honest_env.set_round_sink(opt.round_sink);
  core::HierarchicalMechanism mech(honest_env, bench::make_chiron_config(opt));
  mech.train();
  const CellResult honest = eval_cell(mech, honest_cfg, opt.round_sink,
                                      opt.eval_episodes, opt.seed + 17);

  // Reserve price calibrated just above the most expensive honest node's
  // participation floor 2(μ + E_com): every honest node clears it, while
  // misreporters inflating μ̂ = f·μ push their *reported* floor over it
  // and price themselves out of the round.
  double honest_floor_cap = 0.0;
  for (const auto& d : honest_env.devices()) {
    const double floor =
        2.0 * (d.reserve_utility + d.comm_energy_rate * d.comm_time);
    honest_floor_cap = std::max(honest_floor_cap, floor);
  }

  TableWriter out(std::cout);
  out.header({"adv_fraction", "defenses", "utility", "regret",
              "recovered_share", "accuracy", "rounds", "spent", "flagged",
              "clawed_back", "freeriding", "misreporting"});
  for (double fraction : {0.0, 0.1, 0.2, 0.4}) {
    double regret_off = 0.0;
    for (int defended = 0; defended <= 1; ++defended) {
      std::cerr << "[adversary_sweep] fraction=" << fraction
                << " defenses=" << (defended ? "on" : "off") << "\n";
      core::EnvConfig cfg = honest_cfg;
      cfg.adversary.fraction = fraction;
      cfg.adversary.misreport_factor = 2.0;
      cfg.adversary.freeride_prob = 0.5;
      cfg.adversary.churn_prob = fraction / 4.0;
      if (defended != 0) {
        cfg.defense.reserve_price = 1.02 * honest_floor_cap;
        cfg.defense.audit_prob = 0.5;
        cfg.defense.audit_tolerance = 1.25;
        cfg.defense.reputation_alpha = 0.1;
      }
      const CellResult cell = eval_cell(mech, cfg, opt.round_sink,
                                        opt.eval_episodes, opt.seed + 17);
      const double regret = honest.utility - cell.utility;
      if (defended == 0) regret_off = regret;
      // Share of the undefended regret the defenses claw back; only
      // meaningful on defended rows with real damage to recover.
      const double recovered =
          (defended != 0 && regret_off > 0.0) ? (regret_off - regret) /
                                                    regret_off
                                              : 0.0;
      out.row({TableWriter::num(fraction, 2), defended ? "on" : "off",
               TableWriter::num(cell.utility, 2),
               TableWriter::num(regret, 2), TableWriter::num(recovered, 4),
               TableWriter::num(cell.accuracy, 4),
               TableWriter::num(cell.rounds, 1),
               TableWriter::num(cell.spent, 2), std::to_string(cell.flagged),
               TableWriter::num(cell.clawed_back, 3),
               std::to_string(cell.freeriding),
               std::to_string(cell.misreporting)});
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::harness_main(argc, argv, run);
}
