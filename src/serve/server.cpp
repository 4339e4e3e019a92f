#include "serve/server.h"

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace chiron::serve {

namespace {

// Request-latency buckets: 10 µs .. 10 s. Tighter at the low end than the
// round-phase spans — a batched MLP forward is microseconds, not seconds.
std::vector<double> latency_bounds() {
  return {1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7};
}

std::vector<double> batch_bounds() { return {1, 2, 4, 8, 16, 32, 64, 128}; }

// An idle worker re-checks the queue this many times, yielding between
// checks (about a millisecond in all), before it parks on cv_work_. Waking
// a parked worker on a virtualised host can take milliseconds: once the
// batched forward fell from ~400 µs to ~20 µs, most requests at 8k req/s
// found both workers parked, and p90 latency rose from 0.7 ms to 1.6-3 ms
// (perfbench serve_100, 4-vCPU host). Polling changes who waits, never a
// response.
constexpr int kIdlePolls = 2000;

}  // namespace

MechanismServer::MechanismServer(MechanismWeights initial,
                                 const ServerConfig& config,
                                 ResponseFn on_response)
    : info_(initial.info),
      config_(config),
      on_response_(std::move(on_response)),
      pool_(std::max(config.workers, 1)) {
  CHIRON_CHECK_MSG(config_.workers >= 1, "server needs >= 1 worker");
  CHIRON_CHECK_MSG(config_.batch_max >= 1, "batch_max must be >= 1");
  CHIRON_CHECK_MSG(config_.queue_cap >= 1, "queue_cap must be >= 1");
  CHIRON_CHECK(on_response_ != nullptr);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  c_received_ = reg.counter("serve.received");
  c_served_ = reg.counter("serve.served");
  c_shed_ = reg.counter("serve.shed");
  c_bad_ = reg.counter("serve.bad");
  c_reloads_ = reg.counter("serve.reloads");
  c_batches_ = reg.counter("serve.batches");
  g_queue_depth_ = reg.gauge("serve.queue_depth");
  h_request_us_ = reg.histogram("serve.request.us", latency_bounds());
  h_batch_size_ = reg.histogram("serve.batch_size", batch_bounds());

  initial.version = next_version_++;
  weights_ = std::make_shared<const MechanismWeights>(std::move(initial));

  loops_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    loops_.push_back(pool_.submit([this] { worker_loop(); }));
  }
}

MechanismServer::~MechanismServer() {
  try {
    stop();
  } catch (...) {
    // A worker died on an engine invariant; stop() already joined the
    // rest. Destructors must not throw — the invariant surfaced to the
    // caller if they called stop() themselves.
  }
}

bool MechanismServer::submit(Message request) {
  CHIRON_CHECK_MSG(request.type == MsgType::kPriceRequest,
                   "submit() only takes price requests");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const std::uint64_t t_enq = reg.enabled() ? obs::now_us() : 0;
  reg.add(c_received_);

  const std::size_t want =
      static_cast<std::size_t>(info_.exterior_obs_dim);
  if (request.state.size() != want) {
    std::ostringstream why;
    why << "state has " << request.state.size() << " values, mechanism "
        << "expects " << want;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.received;
      ++stats_.bad;
    }
    reg.add(c_bad_);
    respond_rejection(std::move(request), Status::kBadRequest, why.str());
    return false;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.received;
    if (!stopping_ && queue_.size() < config_.queue_cap) {
      queue_.push_back(Pending{std::move(request), t_enq});
      if (reg.enabled()) {
        reg.set(g_queue_depth_, static_cast<double>(queue_.size()));
      }
      cv_work_.notify_one();
      return true;
    }
    ++stats_.shed;
  }
  reg.add(c_shed_);
  std::ostringstream why;
  if (stopping_) {
    why << "server stopping";
  } else {
    why << "queue full (cap " << config_.queue_cap << ")";
  }
  respond_rejection(std::move(request), Status::kShed, why.str());
  return false;
}

void MechanismServer::reload(MechanismWeights weights) {
  obs::Span span(obs::Phase::kServeReload);
  CHIRON_CHECK_MSG(weights.info.exterior_obs_dim == info_.exterior_obs_dim &&
                       weights.info.num_nodes == info_.num_nodes &&
                       weights.info.hidden == info_.hidden,
                   "reload checkpoint dims (obs "
                       << weights.info.exterior_obs_dim << ", nodes "
                       << weights.info.num_nodes << ", hidden "
                       << weights.info.hidden
                       << ") do not match the serving mechanism (obs "
                       << info_.exterior_obs_dim << ", nodes "
                       << info_.num_nodes << ", hidden " << info_.hidden
                       << ")");
  {
    std::lock_guard<std::mutex> lock(mu_);
    weights.version = next_version_++;
    weights_ = std::make_shared<const MechanismWeights>(std::move(weights));
    ++stats_.reloads;
  }
  obs::MetricsRegistry::instance().add(c_reloads_);
}

void MechanismServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void MechanismServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    stopping_ = true;
  }
  cv_work_.notify_all();
  std::exception_ptr first_error;
  for (std::future<void>& f : loops_) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  loops_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    joined_ = true;
  }
  if (first_error) std::rethrow_exception(first_error);
}

ServerStats MechanismServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t MechanismServer::weights_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return weights_->version;
}

void MechanismServer::worker_loop() {
  PricingEngine engine(info_);
  std::shared_ptr<const MechanismWeights> adopted;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  // Per-worker state buffer: resized (capacity-reusing) each batch so the
  // steady-state loop below stays allocation-free.
  tensor::Tensor states;

  for (;;) {
    std::vector<Pending> batch;
    std::shared_ptr<const MechanismWeights> current;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (int poll = 0; poll < kIdlePolls && !stopping_ && queue_.empty();
           ++poll) {
        lock.unlock();
        std::this_thread::yield();
        lock.lock();
      }
      cv_work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      const std::size_t take = std::min(
          queue_.size(), static_cast<std::size_t>(config_.batch_max));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ += static_cast<int>(take);
      current = weights_;
      ++stats_.batches;
      stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, take);
      if (reg.enabled()) {
        reg.set(g_queue_depth_, static_cast<double>(queue_.size()));
      }
      // More work may remain for the other workers.
      if (!queue_.empty()) cv_work_.notify_one();
    }

    // Hot reload: adopt the latest snapshot at the batch boundary. The
    // requests in `batch` are served entirely on `current` even if a
    // reload lands while the forward runs.
    if (adopted != current) {
      engine.adopt(*current);
      adopted = current;
    }

    const std::int64_t b = static_cast<std::int64_t>(batch.size());
    reg.add(c_batches_);
    if (reg.enabled()) {
      reg.observe(h_batch_size_, static_cast<double>(b));
    }

    bool priced = false;
    std::vector<PriceQuote> quotes;
    std::string failure;
    // chiron-hot-begin(serve-batch)
    try {
      obs::Span span(obs::Phase::kServeBatch);
      // chiron-lint: allow(AL1): Tensor::resize reuses this worker's capacity
      states.resize({b, info_.exterior_obs_dim});
      for (std::int64_t i = 0; i < b; ++i) {
        const std::vector<float>& s =
            batch[static_cast<std::size_t>(i)].request.state;
        std::copy(s.begin(), s.end(),
                  states.vec().begin() +
                      static_cast<std::ptrdiff_t>(i * info_.exterior_obs_dim));
      }
      quotes = engine.price_batch(states);
      priced = true;
    } catch (const std::exception& e) {
      failure = e.what();  // answer the batch with rejections, then keep
                           // serving — one poisoned batch must not kill
                           // the loop
    }
    // chiron-hot-end(serve-batch)

    for (std::size_t i = 0; i < batch.size(); ++i) {
      Message resp;
      resp.type = MsgType::kPriceResponse;
      resp.id = batch[i].request.id;
      if (priced) {
        resp.status = Status::kOk;
        resp.p_total = quotes[i].p_total;
        resp.prices = std::move(quotes[i].prices);
      } else {
        resp.status = Status::kBadRequest;
        resp.error = failure;
      }
      deliver(resp, batch[i].enqueue_us);
    }
    if (priced) reg.add(c_served_, batch.size());

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (priced) {
        stats_.served += batch.size();
      } else {
        stats_.bad += batch.size();
      }
      in_flight_ -= static_cast<int>(batch.size());
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void MechanismServer::respond_rejection(Message request, Status status,
                                        std::string why) {
  Message resp;
  resp.type = MsgType::kPriceResponse;
  resp.id = request.id;
  resp.status = status;
  resp.error = std::move(why);
  deliver(resp, 0);
}

void MechanismServer::deliver(const Message& response,
                              std::uint64_t enqueue_us) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  if (enqueue_us != 0 && reg.enabled()) {
    reg.observe(h_request_us_,
                static_cast<double>(obs::now_us() - enqueue_us));
  }
  on_response_(response);
}

}  // namespace chiron::serve
