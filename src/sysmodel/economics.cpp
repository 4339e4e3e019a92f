#include "sysmodel/economics.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace chiron::sysmodel {

namespace {
/// σ α c d — the coefficient of ζ² in computing energy.
double energy_coeff(const DeviceProfile& d, int local_epochs) {
  return static_cast<double>(local_epochs) * d.capacitance *
         d.cycles_per_bit * d.data_bits;
}
}  // namespace

double unconstrained_optimal_zeta(const DeviceProfile& device, double price,
                                  int local_epochs) {
  CHIRON_CHECK(local_epochs >= 1);
  const double k = 2.0 * energy_coeff(device, local_epochs);
  CHIRON_CHECK(k > 0.0);
  return price / k;
}

double saturation_price(const DeviceProfile& device, int local_epochs) {
  return 2.0 * energy_coeff(device, local_epochs) * device.zeta_max;
}

double utility_at(const DeviceProfile& device, double price, double zeta,
                  int local_epochs) {
  const double e_cmp = energy_coeff(device, local_epochs) * zeta * zeta;
  const double e_com = device.comm_energy_rate * device.comm_time;
  return price * zeta - e_cmp - e_com;
}

NodeDecision best_response(const DeviceProfile& device, double price,
                           int local_epochs) {
  CHIRON_CHECK(local_epochs >= 1);
  NodeDecision d;
  d.price = price;
  d.comm_time = device.comm_time;
  if (price <= 0.0) return d;  // no bonus, no participation

  const double zeta_star = std::clamp(
      unconstrained_optimal_zeta(device, price, local_epochs),
      device.zeta_min, device.zeta_max);
  const double utility = utility_at(device, price, zeta_star, local_epochs);
  if (utility < device.reserve_utility) return d;  // reserve not met

  d.participates = true;
  d.zeta = zeta_star;
  d.compute_time = static_cast<double>(local_epochs) * device.cycles_per_bit *
                   device.data_bits / zeta_star;
  d.total_time = d.compute_time + d.comm_time;
  d.compute_energy = energy_coeff(device, local_epochs) * zeta_star * zeta_star;
  d.comm_energy = device.comm_energy_rate * device.comm_time;
  d.utility = utility;
  d.payment = price * zeta_star;
  return d;
}

RoundOutcome run_round(const std::vector<DeviceProfile>& devices,
                       const std::vector<double>& prices, int local_epochs) {
  CHIRON_CHECK_MSG(devices.size() == prices.size(),
                   "devices " << devices.size() << " vs prices "
                              << prices.size());
  std::vector<NodeDecision> nodes;
  nodes.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i)
    nodes.push_back(best_response(devices[i], prices[i], local_epochs));
  return aggregate_round(std::move(nodes));
}

RoundOutcome aggregate_round(std::vector<NodeDecision> nodes) {
  RoundOutcome out;
  out.nodes = std::move(nodes);
  for (const NodeDecision& d : out.nodes) {
    if (d.participates) {
      ++out.participants;
      out.round_time = std::max(out.round_time, d.total_time);
      out.total_payment += d.payment;
      out.total_energy += d.compute_energy + d.comm_energy;
    }
  }
  if (out.participants > 0 && out.round_time > 0.0) {
    // Eqns (15)–(16) sum over ALL N nodes; a node that declined trains for
    // zero time, so it contributes a full round of idle time. This is what
    // makes concentrating the budget on few nodes unattractive to the
    // inner agent.
    double time_sum = 0.0;
    for (const auto& d : out.nodes) {
      const double t = d.participates ? d.total_time : 0.0;
      out.idle_time += out.round_time - t;
      time_sum += t;
    }
    out.time_efficiency =
        time_sum /
        (static_cast<double>(out.nodes.size()) * out.round_time);
  } else {
    out.time_efficiency = 0.0;
  }
  return out;
}

NodeDecision misreported_response(const DeviceProfile& device, double price,
                                  int local_epochs, double factor) {
  CHIRON_CHECK(local_epochs >= 1);
  CHIRON_CHECK_MSG(factor >= 1.0, "misreport factor must be >= 1, got "
                                      << factor);
  if (factor == 1.0) return best_response(device, price, local_epochs);

  NodeDecision d;
  d.price = price;
  d.comm_time = device.comm_time;
  if (price <= 0.0) return d;

  const double coeff = energy_coeff(device, local_epochs);
  // The frequency the node actually runs: best response under the
  // inflated cost factor·α·c·d (Eqn 11 with α̂ = f·α).
  const double zeta_run = std::clamp(price / (2.0 * factor * coeff),
                                     device.zeta_min, device.zeta_max);
  // Participation gate under the *reported* profile: inflated energy cost
  // against the inflated reserve — a misreporting node demands more.
  const double e_com = device.comm_energy_rate * device.comm_time;
  const double reported_utility =
      price * zeta_run - factor * coeff * zeta_run * zeta_run - e_com;
  if (reported_utility < factor * device.reserve_utility) return d;

  // What the node *claims* (and is paid for): the honest best response.
  const double zeta_claim = std::clamp(
      unconstrained_optimal_zeta(device, price, local_epochs),
      device.zeta_min, device.zeta_max);

  d.participates = true;
  d.zeta = zeta_claim;  // the frequency the payment buys
  d.compute_time = static_cast<double>(local_epochs) * device.cycles_per_bit *
                   device.data_bits / zeta_run;
  d.total_time = d.compute_time + d.comm_time;
  d.compute_energy = coeff * zeta_run * zeta_run;  // true physical cost
  d.comm_energy = e_com;
  d.utility = price * zeta_claim - d.compute_energy - e_com;  // true utility
  d.payment = price * zeta_claim;
  return d;
}

double realized_node_time(const NodeDecision& node, double slowdown,
                          double deadline) {
  CHIRON_CHECK(slowdown >= 1.0);
  if (!node.participates) return 0.0;
  const double t = node.compute_time * slowdown + node.comm_time;
  return deadline > 0.0 ? std::min(t, deadline) : t;
}

RoundOutcome realize_round(RoundOutcome promised,
                           const std::vector<double>& realized_times,
                           const std::vector<bool>& paid) {
  CHIRON_CHECK(promised.nodes.size() == realized_times.size());
  CHIRON_CHECK(promised.nodes.size() == paid.size());
  // Participants and energy carry over (compute happened either way);
  // time, payment and the Eqn (15)/(16) aggregates are recomputed.
  RoundOutcome out = std::move(promised);
  out.round_time = 0.0;
  out.total_payment = 0.0;
  out.idle_time = 0.0;
  for (std::size_t i = 0; i < out.nodes.size(); ++i) {
    NodeDecision& d = out.nodes[i];
    if (!d.participates) {
      CHIRON_CHECK(!paid[i]);
      continue;
    }
    d.total_time = realized_times[i];
    out.round_time = std::max(out.round_time, d.total_time);
    if (paid[i]) {
      out.total_payment += d.payment;
    } else {
      d.payment = 0.0;  // pay-on-delivery: no upload, no payment
    }
  }
  // Eqns (15)-(16) over the realized times; as in run_round, all N nodes
  // count and a non-participant idles for the whole round.
  if (out.participants > 0 && out.round_time > 0.0) {
    double time_sum = 0.0;
    for (const auto& d : out.nodes) {
      const double t = d.participates ? d.total_time : 0.0;
      out.idle_time += out.round_time - t;
      time_sum += t;
    }
    out.time_efficiency =
        time_sum / (static_cast<double>(out.nodes.size()) * out.round_time);
  } else {
    out.time_efficiency = 0.0;
  }
  return out;
}

}  // namespace chiron::sysmodel
