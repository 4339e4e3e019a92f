// The per-round economics of edge learning (paper §III–IV).
//
// Given a posted price p_{i,k}, each node plays its best response
// (Eqn 11): ζ* = p / (2σ α c d), clamped to [ζ_min, ζ_max], and
// participates only if the resulting utility (Eqn 8) clears its reserve.
// All time/energy formulas are Eqns (6)–(8); round aggregates (idle time,
// Eqn 16 time efficiency) feed the DRL rewards.
#pragma once

#include <vector>

#include "sysmodel/device.h"

namespace chiron::sysmodel {

/// A node's realized round outcome under a posted price.
struct NodeDecision {
  bool participates = false;
  double price = 0.0;          // p_{i,k} as posted
  double zeta = 0.0;           // chosen CPU frequency [Hz] (0 if declined)
  double compute_time = 0.0;   // T^cmp (Eqn 6)
  double comm_time = 0.0;      // T^com (Eqn 7, modelled directly)
  double total_time = 0.0;     // T_i = T^cmp + T^com
  double compute_energy = 0.0; // E^cmp = σ α c d ζ²
  double comm_energy = 0.0;    // E^com = ε T^com
  double utility = 0.0;        // u = p ζ − E (Eqn 8)
  double payment = 0.0;        // p ζ — what the server actually pays
};

/// Best response of a node to price p (σ = local epochs per round).
/// A non-positive price or a best-response utility below the node's
/// reserve yields participates == false with zero time/energy/payment.
NodeDecision best_response(const DeviceProfile& device, double price,
                           int local_epochs);

/// Unclamped optimizer of Eqn (11): p / (2σ α c d).
double unconstrained_optimal_zeta(const DeviceProfile& device, double price,
                                  int local_epochs);

/// Price at which the node's unclamped best response reaches ζ_max; paying
/// more buys no additional speed. Used to bound the agents' action range.
double saturation_price(const DeviceProfile& device, int local_epochs);

/// Node utility at a given frequency (Eqn 8), including comm energy.
double utility_at(const DeviceProfile& device, double price, double zeta,
                  int local_epochs);

/// Round aggregates over participating nodes.
struct RoundOutcome {
  std::vector<NodeDecision> nodes;
  int participants = 0;
  double round_time = 0.0;       // T_k = max_i T_i over participants
  double total_payment = 0.0;    // Σ p_i ζ_i
  double total_energy = 0.0;
  double idle_time = 0.0;        // Eqn (15): Σ_{i=1}^N (T_k − T_i), T_i = 0
                                 // for nodes that declined
  double time_efficiency = 1.0;  // Eqn (16): Σ_{i=1}^N T_i / (N · T_k)
};

/// Evaluates one pricing round across all devices.
RoundOutcome run_round(const std::vector<DeviceProfile>& devices,
                       const std::vector<double>& prices, int local_epochs);

/// Folds per-node decisions (one per device, in node order) into a
/// RoundOutcome — the aggregation tail of run_round, exposed so callers
/// that mix honest and strategic responses share its exact Eqn (15)/(16)
/// accumulation order (EconomicsPlane::aggregate_round replays it for
/// populations within one reduction chunk).
RoundOutcome aggregate_round(std::vector<NodeDecision> nodes);

/// Strategic response of a node that misreports its cost parameters by
/// `factor` >= 1: the node *behaves* as if its energy cost α·c·d and its
/// reserve μ were `factor` times larger — it participates only when the
/// inflated reserve clears and runs at the inflated-cost best-response
/// frequency (slower) — but it *bills* the server for the honest
/// best-response frequency ζ* = p/(2σαcd). The returned decision carries
/// the claimed frequency in `zeta` and `payment` (what the server is
/// charged), the actually-run frequency in `compute_time`/`total_time`/
/// `compute_energy` (what physically happens), and the node's true
/// utility (claimed revenue minus true energy). factor == 1 is exactly
/// best_response.
NodeDecision misreported_response(const DeviceProfile& device, double price,
                                  int local_epochs, double factor);

/// Realized wall-clock of one node under fault injection: compute time
/// scaled by the straggler slowdown, plus communication, capped at the
/// server's round deadline (0 = no deadline). Zero for non-participants.
double realized_node_time(const NodeDecision& node, double slowdown,
                          double deadline);

/// Pay-on-delivery view of a round. `realized_times[i]` is node
/// i's realized wall-clock (realized_node_time; 0 for non-participants)
/// and `paid[i]` marks the nodes whose upload was delivered and accepted.
/// Returns a RoundOutcome whose round time, idle time and Eqn-(16)
/// efficiency are recomputed over the realized times, and whose payments
/// keep only the delivering nodes — crashed, late and rejected nodes earn
/// nothing and do not drain the budget. With every participant paid at
/// its promised time this is exactly the promised outcome. A caller done
/// with `promised` moves it in, and the outcome is realized in place.
RoundOutcome realize_round(RoundOutcome promised,
                           const std::vector<double>& realized_times,
                           const std::vector<bool>& paid);

}  // namespace chiron::sysmodel
