#include "sysmodel/plane.h"

#include <algorithm>

#include "common/error.h"
#include "runtime/parallel.h"

namespace chiron::sysmodel {

namespace {
/// Minimum elements per parallel_for chunk in the elementwise passes:
/// below 2x this the pass runs inline on the caller, so small (N<=1k)
/// populations never pay pool hand-off for a few microseconds of math.
constexpr std::int64_t kElementGrain = 512;
}  // namespace

void DecisionBatch::resize(std::size_t n) {
  participates.resize(n);
  price.resize(n);
  zeta.resize(n);
  compute_time.resize(n);
  comm_time.resize(n);
  total_time.resize(n);
  compute_energy.resize(n);
  comm_energy.resize(n);
  utility.resize(n);
  payment.resize(n);
}

NodeDecision DecisionBatch::node(std::size_t i) const {
  NodeDecision d;
  d.participates = participates[i] != 0;
  d.price = price[i];
  d.zeta = zeta[i];
  d.compute_time = compute_time[i];
  d.comm_time = comm_time[i];
  d.total_time = total_time[i];
  d.compute_energy = compute_energy[i];
  d.comm_energy = comm_energy[i];
  d.utility = utility[i];
  d.payment = payment[i];
  return d;
}

const DecisionBatch& DecisionView::columns() const {
  static const DecisionBatch kEmpty;
  return batch_ ? *batch_ : kEmpty;
}

void DecisionBatch::set(std::size_t i, const NodeDecision& d) {
  participates[i] = d.participates ? 1 : 0;
  price[i] = d.price;
  zeta[i] = d.zeta;
  compute_time[i] = d.compute_time;
  comm_time[i] = d.comm_time;
  total_time[i] = d.total_time;
  compute_energy[i] = d.compute_energy;
  comm_energy[i] = d.comm_energy;
  utility[i] = d.utility;
  payment[i] = d.payment;
}

EconomicsPlane::EconomicsPlane(const std::vector<DeviceProfile>& devices,
                               int local_epochs, std::size_t chunk)
    : local_epochs_(local_epochs), chunk_(chunk) {
  CHIRON_CHECK(local_epochs_ >= 1);
  CHIRON_CHECK(chunk_ >= 1);
  rebuild(devices);
}

void EconomicsPlane::rebuild(const std::vector<DeviceProfile>& devices) {
  const std::size_t n = devices.size();
  k2_.resize(n);
  coeff_.resize(n);
  t_num_.resize(n);
  e_com_.resize(n);
  zeta_min_.resize(n);
  zeta_max_.resize(n);
  comm_time_.resize(n);
  reserve_.resize(n);
  data_bits_.resize(n);
  for (std::size_t i = 0; i < n; ++i) set_device(i, devices[i]);
}

void EconomicsPlane::set_device(std::size_t i, const DeviceProfile& d) {
  CHIRON_CHECK_MSG(i < num_nodes(),
                   "node " << i << " vs plane " << num_nodes());
  // Same association as economics.cpp's energy_coeff: ((sigma*alpha)*c)*d.
  const double coeff = static_cast<double>(local_epochs_) * d.capacitance *
                       d.cycles_per_bit * d.data_bits;
  const double k2 = 2.0 * coeff;
  CHIRON_CHECK_MSG(k2 > 0.0, "device " << i << " has zero energy coeff");
  coeff_[i] = coeff;
  k2_[i] = k2;
  // Eqn (6) numerator, associated as ((sigma*c)*d) like best_response.
  t_num_[i] = static_cast<double>(local_epochs_) * d.cycles_per_bit *
              d.data_bits;
  e_com_[i] = d.comm_energy_rate * d.comm_time;
  zeta_min_[i] = d.zeta_min;
  zeta_max_[i] = d.zeta_max;
  comm_time_[i] = d.comm_time;
  reserve_[i] = d.reserve_utility;
  data_bits_[i] = d.data_bits;
}

void EconomicsPlane::best_response_batch(const std::vector<double>& prices,
                                         DecisionBatch& out) const {
  const std::size_t n = num_nodes();
  CHIRON_CHECK_MSG(prices.size() == n,
                   "prices " << prices.size() << " vs plane " << n);
  // chiron-hot-begin(econ-best-response)
  // chiron-lint: allow(AL1): DecisionBatch::resize reuses its columns' capacity
  out.resize(n);
  // chiron-hot-end(econ-best-response)
  best_response_into(prices.data(), out);
}

void EconomicsPlane::best_response_batch(DecisionBatch& batch) const {
  CHIRON_CHECK_MSG(batch.size() == num_nodes(),
                   "batch " << batch.size() << " vs plane " << num_nodes());
  best_response_into(batch.price.data(), batch);
}

void EconomicsPlane::best_response_into(const double* prices,
                                        DecisionBatch& out) const {
  const std::size_t n = num_nodes();
  // chiron-hot-begin(econ-best-response-pass)
  runtime::parallel_for(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t ii = lo; ii < hi; ++ii) {
          const auto i = static_cast<std::size_t>(ii);
          const double p = prices[i];
          out.price[i] = p;
          out.comm_time[i] = comm_time_[i];
          // Eqn (11) clamped best response and Eqn (8) utility, with the
          // exact operation order of best_response/utility_at so every
          // column is bit-identical to the scalar path.
          const double zc =
              std::clamp(p / k2_[i], zeta_min_[i], zeta_max_[i]);
          const double e_cmp = coeff_[i] * zc * zc;
          const double u = p * zc - e_cmp - e_com_[i];
          const bool live = p > 0.0 && !(u < reserve_[i]);
          const double t_cmp = t_num_[i] / zc;
          out.participates[i] = live ? 1 : 0;
          out.zeta[i] = live ? zc : 0.0;
          out.compute_time[i] = live ? t_cmp : 0.0;
          out.total_time[i] = live ? t_cmp + comm_time_[i] : 0.0;
          out.compute_energy[i] = live ? e_cmp : 0.0;
          out.comm_energy[i] = live ? e_com_[i] : 0.0;
          out.utility[i] = live ? u : 0.0;
          out.payment[i] = live ? p * zc : 0.0;
        }
      },
      kElementGrain);
  // chiron-hot-end(econ-best-response-pass)
}

void EconomicsPlane::utility_batch(const std::vector<double>& prices,
                                   const std::vector<double>& zetas,
                                   std::vector<double>& utilities) const {
  const std::size_t n = num_nodes();
  CHIRON_CHECK_MSG(prices.size() == n,
                   "prices " << prices.size() << " vs plane " << n);
  CHIRON_CHECK_MSG(zetas.size() == n,
                   "zetas " << zetas.size() << " vs plane " << n);
  // chiron-hot-begin(econ-utility)
  // chiron-lint: allow(AL1): vector::resize reuses capacity; n is fixed per plane
  utilities.resize(n);
  runtime::parallel_for(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t ii = lo; ii < hi; ++ii) {
          const auto i = static_cast<std::size_t>(ii);
          const double e_cmp = coeff_[i] * zetas[i] * zetas[i];
          utilities[i] = prices[i] * zetas[i] - e_cmp - e_com_[i];
        }
      },
      kElementGrain);
  // chiron-hot-end(econ-utility)
}

RoundAggregates EconomicsPlane::aggregate_round(
    const DecisionBatch& batch) const {
  const std::size_t n = num_nodes();
  CHIRON_CHECK_MSG(batch.size() == n,
                   "batch " << batch.size() << " vs plane " << n);
  RoundAggregates out;
  if (n == 0) return out;
  // chiron-hot-begin(econ-aggregate)
  const auto chunks = static_cast<std::int64_t>((n + chunk_ - 1) / chunk_);

  // Pass 1 (participants, T_k, payments, energy): fixed-size chunks, each
  // partial accumulated in node order exactly like aggregate_round's
  // first loop, folded serially ascending. One chunk == the scalar loop.
  struct Pass1 {
    int participants = 0;
    double round_time = 0.0;
    double payment = 0.0;
    double energy = 0.0;
  };
  // chiron-lint: allow(AL1): parallel_map returns O(chunks) partials, not O(N)
  const std::vector<Pass1> p1 = runtime::parallel_map<Pass1>(
      chunks, [&](std::int64_t c) {
        Pass1 acc;
        const std::size_t lo = static_cast<std::size_t>(c) * chunk_;
        const std::size_t hi = std::min(n, lo + chunk_);
        for (std::size_t i = lo; i < hi; ++i) {
          if (batch.participates[i]) {
            ++acc.participants;
            acc.round_time = std::max(acc.round_time, batch.total_time[i]);
            acc.payment += batch.payment[i];
            acc.energy += batch.compute_energy[i] + batch.comm_energy[i];
          }
        }
        return acc;
      });
  for (const Pass1& p : p1) {
    out.participants += p.participants;
    out.round_time = std::max(out.round_time, p.round_time);
    out.total_payment += p.payment;
    out.total_energy += p.energy;
  }

  // Pass 2 (Eqns 15/16) needs the global round time, so it is a second
  // chunked sweep over all N nodes — declined nodes idle the full round.
  if (out.participants > 0 && out.round_time > 0.0) {
    const double round_time = out.round_time;
    struct Pass2 {
      double idle = 0.0;
      double time_sum = 0.0;
    };
    // chiron-lint: allow(AL1): parallel_map returns O(chunks) partials, not O(N)
    const std::vector<Pass2> p2 = runtime::parallel_map<Pass2>(
        chunks, [&](std::int64_t c) {
          Pass2 acc;
          const std::size_t lo = static_cast<std::size_t>(c) * chunk_;
          const std::size_t hi = std::min(n, lo + chunk_);
          for (std::size_t i = lo; i < hi; ++i) {
            const double t =
                batch.participates[i] ? batch.total_time[i] : 0.0;
            acc.idle += round_time - t;
            acc.time_sum += t;
          }
          return acc;
        });
    double time_sum = 0.0;
    for (const Pass2& p : p2) {
      out.idle_time += p.idle;
      time_sum += p.time_sum;
    }
    out.time_efficiency =
        time_sum / (static_cast<double>(n) * out.round_time);
  } else {
    out.time_efficiency = 0.0;
  }
  return out;
  // chiron-hot-end(econ-aggregate)
}

RoundOutcome EconomicsPlane::run_round(const std::vector<double>& prices,
                                       DecisionBatch& batch) const {
  best_response_batch(prices, batch);
  return to_outcome(batch, aggregate_round(batch));
}

RoundOutcome EconomicsPlane::to_outcome(const DecisionBatch& batch,
                                        const RoundAggregates& agg) const {
  const std::size_t n = batch.size();
  RoundOutcome out;
  out.nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.nodes.push_back(batch.node(i));
  out.participants = agg.participants;
  out.round_time = agg.round_time;
  out.total_payment = agg.total_payment;
  out.total_energy = agg.total_energy;
  out.idle_time = agg.idle_time;
  out.time_efficiency = agg.time_efficiency;
  return out;
}

}  // namespace chiron::sysmodel
