// serve_100 — an open-loop price service: MechanismServer (2 workers,
// batch_max 32) serving a 100-node mechanism checkpoint written in set-up
// and read back through load_mechanism_weights. Request states come from
// a seeded surrogate rollout at N=100 and travel as CHSP frames through
// serve::encode/decode in the benchmark's front-end. A hot reload is
// published at a fixed cadence beside the price reads, alternating two
// checkpoints, and every response is checked byte for byte against
// PricingEngine::price_one for the same state and weights version.
//
// The generator is the main thread: request i is due at t0 + i/rate and
// is timed from when it was due, not from when it was submitted, so a
// generator stall shows in the latencies of the requests behind it. It
// paces by spinning on the steady clock, never by sleeping: a timed sleep
// on a virtualised host wakes up to milliseconds late, which would show
// as generator lateness, not as service latency. Generator + 2 workers =
// 3 threads.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/mechanism.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using namespace chiron;

namespace {

constexpr int kNodes = 100;
constexpr int kStates = 512;         // distinct request states
constexpr int kWorkers = 2;
constexpr int kBatchMax = 32;
constexpr int kSetupReps = 3;
/// Reference rate of the latency and throughput figures: well below
/// capacity, but busy enough that requests coalesce into small batches and
/// the workers rarely park (at 1,000 req/s an idle worker's wake-up on a
/// virtualised host took up to 3 ms in some runs, doubling p90).
constexpr double kRefRate = 8000.0;
constexpr double kReloadEvery = 0.05;    // s between hot reloads
constexpr double kLatencyLimitMs = 2.0;  // p90 limit for max_rate
constexpr double kRungSeconds = 0.5;     // one max_rate probe
constexpr int kProbeAttempts = 3;        // a rate fails only if all fail
/// Latency windows of the reference phase (~0.5 s each at 20 s runs):
/// host stalls come in bursts of a few windows, and the median window
/// does not see them.
constexpr int kLatencyWindows = 24;
/// A probe whose unanswered requests exceed this has a growing backlog;
/// it stops offering load (so nothing is shed and memory stays bounded).
constexpr long kMaxInflight = 500;
constexpr std::size_t kHeader = 14;  // magic, version, type, id

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Spins until an absolute due time.
void wait_until(std::int64_t due) {
  while (now_ns() < due) {
  }
}

struct Inputs {
  std::string ckpt_a, ckpt_b;
  serve::MechanismWeights a, b;
  std::vector<std::vector<float>> states;
  /// Encoded response bodies (after the id) of price_one per state under
  /// checkpoint a / b.
  std::vector<std::vector<std::uint8_t>> want_a, want_b;
  double utility = 0.0;  // mean Σ(λΔA − T_k) of the rollout episodes
  double fingerprint = 0.0;  // = utility: a function of the seed's inputs
};

core::EnvConfig serve_env_config(std::uint64_t seed) {
  core::EnvConfig c;
  c.num_nodes = kNodes;
  c.backend = core::BackendKind::kSurrogate;
  c.budget = 58.9 * kNodes;  // ~20 rounds per episode, as market_100k
  c.seed = seed;
  return c;
}

std::vector<std::uint8_t> response_body(const serve::PriceQuote& q) {
  serve::Message m;
  m.type = serve::MsgType::kPriceResponse;
  m.p_total = q.p_total;
  m.prices = q.prices;
  std::vector<std::uint8_t> bytes = serve::encode(m);
  return {bytes.begin() + kHeader, bytes.end()};
}

/// Checkpoints, request states and expected responses, plus a closed-loop
/// warm-up of the server.
Inputs build(const Options& opt, std::uint64_t seed) {
  Inputs in;
  core::EdgeLearnEnv env(serve_env_config(seed));
  core::ChironConfig mc;
  mc.seed = seed;
  mc.episodes_per_update = 1;
  core::HierarchicalMechanism mech(env, mc);
  in.ckpt_a = opt.out_dir + "/serve_a.ckpt";
  in.ckpt_b = opt.out_dir + "/serve_b.ckpt";
  mech.save(in.ckpt_a);
  mech.run_episode(true, true);  // one learning episode: a second version
  mech.save(in.ckpt_b);
  in.a = serve::load_mechanism_weights(in.ckpt_a);
  in.b = serve::load_mechanism_weights(in.ckpt_b);

  // A seeded surrogate rollout of the market gives the request states.
  serve::PricingEngine ea(in.a.info), eb(in.b.info);
  ea.adopt(in.a);
  eb.adopt(in.b);
  const PricePool pool = make_price_pool(env, seed);
  std::vector<double> episode_utility;
  double u = 0.0;
  int episode = 0, round = 0;
  env.reset();
  while (static_cast<int>(in.states.size()) < kStates) {
    std::vector<float> s = env.exterior_state();
    in.want_a.push_back(response_body(ea.price_one(s)));
    in.want_b.push_back(response_body(eb.price_one(s)));
    in.states.push_back(std::move(s));
    const core::StepResult r =
        env.step(scheduled_prices(pool, episode, round++));
    if (!r.aborted) u += r.raw_exterior_reward;
    if (env.done()) {
      episode_utility.push_back(u);
      u = 0.0;
      round = 0;
      ++episode;
      env.reset();
    }
  }
  in.utility = mean(episode_utility);
  in.fingerprint = in.utility;

  // Warm-up: every state once through a server, closed loop.
  serve::ServerConfig cfg;
  cfg.workers = kWorkers;
  cfg.batch_max = kBatchMax;
  cfg.queue_cap = kStates;
  std::atomic<long> ok{0};
  {
    serve::MechanismServer server(in.a, cfg, [&](const serve::Message& m) {
      if (m.status == serve::Status::kOk) ok.fetch_add(1);
    });
    for (int i = 0; i < kStates; ++i) {
      serve::Message m;
      m.id = static_cast<std::uint64_t>(i + 1);
      m.state = in.states[static_cast<std::size_t>(i)];
      server.submit(std::move(m));
    }
    server.stop();
  }
  if (ok.load() != kStates) throw std::runtime_error("serve warm-up lost requests");
  return in;
}

struct Phase {
  /// due → checked response per request, in due order; a failed request
  /// misses any latency limit and reads +inf.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;     // submit − due, per request
  long sent = 0, ok = 0, failed = 0, shed = 0;
  double wall_s = 0.0;             // first due → last response
  double batch_mean = 0.0;
  bool backlog = false;            // responses trailed the offered rate
};

/// One open-loop phase at `rate` req/s for `seconds`.
Phase open_loop(const Inputs& in, Result* res, double rate, double seconds) {
  const long n = std::max(1L, static_cast<long>(rate * seconds));
  const std::int64_t period = static_cast<std::int64_t>(1e9 / rate);
  std::vector<std::int64_t> due(static_cast<std::size_t>(n));
  std::vector<std::int64_t> done(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> good(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> lo_version(static_cast<std::size_t>(n));
  std::atomic<std::uint64_t> published_hi{1};
  std::uint64_t published_lo = 1;
  std::atomic<long> bad_seen{0};
  std::atomic<long> answered{0};

  serve::ServerConfig cfg;
  cfg.workers = kWorkers;
  cfg.batch_max = kBatchMax;
  cfg.queue_cap = kMaxInflight + 1024;  // never reached: nothing is shed
  Phase ph;
  {
    serve::MechanismServer server(in.a, cfg, [&](const serve::Message& resp) {
      // Front-end: the response crosses the wire as a CHSP frame.
      const std::vector<std::uint8_t> bytes = serve::encode(resp);
      const serve::Message back = serve::decode(bytes);
      const std::int64_t t = now_ns();
      const auto i = static_cast<std::size_t>(back.id - 1);
      const std::size_t s = i % in.states.size();
      bool match = false;
      if (back.status == serve::Status::kOk) {
        const std::uint64_t hi = published_hi.load();
        for (std::uint64_t v = lo_version[i]; v <= hi && !match; ++v) {
          const auto& want = (v % 2 == 1) ? in.want_a[s] : in.want_b[s];
          match = bytes.size() == kHeader + want.size() &&
                  std::memcmp(bytes.data() + kHeader, want.data(),
                              want.size()) == 0;
        }
        if (!match) bad_seen.fetch_add(1);
      }
      good[i] = match ? 1 : 0;
      done[i] = t;
      answered.fetch_add(1);
    });

    const std::int64_t t0 = now_ns() + 1000000;
    std::int64_t next_reload = t0 + static_cast<std::int64_t>(kReloadEvery * 1e9);
    long sent = 0;
    for (long i = 0; i < n; ++i) {
      const std::int64_t d = t0 + i * period;
      due[static_cast<std::size_t>(i)] = d;
      wait_until(d);
      if (i - answered.load() > kMaxInflight) {
        ph.backlog = true;
        break;
      }
      if (d >= next_reload) {
        const std::uint64_t v = published_lo + 1;
        published_hi.store(v);
        server.reload(v % 2 == 1 ? in.a : in.b);
        published_lo = v;
        next_reload += static_cast<std::int64_t>(kReloadEvery * 1e9);
      }
      serve::Message req;
      req.type = serve::MsgType::kPriceRequest;
      req.id = static_cast<std::uint64_t>(i + 1);
      req.state = in.states[static_cast<std::size_t>(i) % in.states.size()];
      lo_version[static_cast<std::size_t>(i)] = published_lo;
      // Front-end: the request crosses the wire as a CHSP frame.
      serve::Message wire = serve::decode(serve::encode(req));
      ph.late_ms.push_back(static_cast<double>(now_ns() - d) * 1e-6);
      server.submit(std::move(wire));
      ++sent;
    }
    server.drain();
    const serve::ServerStats st = server.stats();
    server.stop();
    ph.shed = static_cast<long>(st.shed);
    ph.batch_mean = st.batches ? static_cast<double>(st.served) /
                                     static_cast<double>(st.batches)
                               : 0.0;
    std::int64_t last_done = t0;
    for (long i = 0; i < sent; ++i) {
      const auto k = static_cast<std::size_t>(i);
      ++ph.sent;
      last_done = std::max(last_done, done[k]);
      if (good[k]) {
        ++ph.ok;
        ph.latency_ms.push_back(static_cast<double>(done[k] - due[k]) * 1e-6);
      } else {
        ++ph.failed;
        ph.latency_ms.push_back(std::numeric_limits<double>::infinity());
      }
    }
    ph.wall_s = static_cast<double>(last_done - t0) * 1e-9;
    // A growing backlog shows as latency rising through the phase: the
    // last quarter's median must stay within the limit as well.
    const std::vector<double> tail(ph.latency_ms.begin() + sent * 3 / 4,
                                   ph.latency_ms.end());
    ph.backlog = ph.backlog || quantile(tail, 0.5) > kLatencyLimitMs;
  }
  if (res) {
    res->attempted += ph.sent;
    res->failed += ph.failed;
    if (bad_seen.load() > 0)
      res->fail_check("serve_100: " + std::to_string(bad_seen.load()) +
                      " responses differ from PricingEngine::price_one");
  }
  return ph;
}

/// True when a phase meets the service objective: p90 within the limit,
/// nothing shed or failed, and no growing backlog.
bool meets_objective(const Phase& ph) {
  return ph.failed == 0 && ph.shed == 0 && !ph.backlog &&
         quantile(ph.latency_ms, 0.9) <= kLatencyLimitMs;
}

/// A probe at `rate`, repeated on failure: a host stall inside one short
/// probe must not decide the knee.
bool rate_passes(const Inputs& in, Result& res, double rate, double* served) {
  for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
    const Phase ph = open_loop(in, &res, rate, kRungSeconds);
    if (meets_objective(ph)) {
      *served = static_cast<double>(ph.ok) / ph.wall_s;
      return true;
    }
  }
  return false;
}

/// Offered rates of the max_rate ladder, req/s: the reference rate up to
/// 4x it. The knee itself (40-80k req/s on a 4-vCPU host, where the
/// generator's own per-request cost also binds) moved by a factor of two
/// between runs with host load, so the ladder stops below it: a run
/// reports the top rung unless serving got slower than 4x the reference
/// rate can bear, which is the regression this metric exists to catch.
constexpr double kLadder[] = {8000.0, 12000.0, 16000.0, 24000.0, 32000.0};

/// Highest rung of the ladder that meets the objective, climbing until a
/// rung fails; reported as the served rate measured on that rung.
double max_rate(const Inputs& in, Result& res, double seconds) {
  const auto start = Clock::now();
  double best = 0.0, served = 0.0;
  for (double rate : kLadder) {
    if (seconds_between(start, Clock::now()) + kProbeAttempts * kRungSeconds >
        seconds)
      break;
    if (!rate_passes(in, res, rate, &served)) break;
    best = served;
  }
  return best;
}

}  // namespace

void run_serve(const Options& opt, Result& res, Tracer& tracer) {
  Inputs in;
  const double setup_s = timed_setup(
      opt, res, kSetupReps,
      [&opt](std::uint64_t seed) { return build(opt, seed); }, in);

  if (!opt.trace) {
    const Phase ref = open_loop(in, &res, kRefRate, opt.seconds * 0.6);
    const std::string why = check_utility_ledger(opt, "rollout", in.utility);
    if (!why.empty()) res.fail_check("serve_100: " + why);
    const double rate = max_rate(in, res, opt.seconds * 0.4);
    res.add("setup_s", setup_s, "s");
    res.add("throughput", static_cast<double>(ref.ok) / ref.wall_s, "1/s");
    res.add("latency_ms_p50",
            windowed_quantile(ref.latency_ms, 0.5, kLatencyWindows), "ms");
    res.add("latency_ms_p90",
            windowed_quantile(ref.latency_ms, 0.9, kLatencyWindows), "ms");
    res.add("peak_rss_mb", peak_rss_mb(), "MiB");
    res.add("utility", in.utility, "utility");
    res.add("max_rate", rate, "1/s");
    return;
  }

  // Traced run: the reference phase untraced, then the request states
  // replayed through the serving layers, spans off and on.
  const Phase ref = open_loop(in, &res, kRefRate, opt.seconds * 0.4);
  const int batch = std::max(1, static_cast<int>(ref.batch_mean + 0.5));
  serve::PricingEngine engine(in.a.info);
  engine.adopt(in.a);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::MechanismServer reloader(in.a, cfg, [](const serve::Message&) {});
  auto replay = [&](Tracer& t, int requests) {
    const std::int64_t dim = in.a.info.exterior_obs_dim;
    for (int i = 0; i < requests; i += batch) {
      Scope root(t, "serve.request_batch");
      tensor::Tensor states({batch, dim});
      std::vector<serve::Message> reqs;
      {
        Scope s(t, "serve.protocol");
        for (int b = 0; b < batch; ++b) {
          serve::Message m;
          m.id = static_cast<std::uint64_t>(i + b + 1);
          m.state = in.states[static_cast<std::size_t>(i + b) % in.states.size()];
          reqs.push_back(serve::decode(serve::encode(m)));
        }
      }
      for (int b = 0; b < batch; ++b)
        std::memcpy(states.data() + b * dim, reqs[static_cast<std::size_t>(b)].state.data(),
                    static_cast<std::size_t>(dim) * sizeof(float));
      std::vector<serve::PriceQuote> quotes;
      {
        Scope s(t, "serve.price_batch");
        quotes = engine.price_batch(states);
      }
      {
        Scope s(t, "serve.protocol");
        for (int b = 0; b < batch; ++b) {
          serve::Message m;
          m.type = serve::MsgType::kPriceResponse;
          m.id = reqs[static_cast<std::size_t>(b)].id;
          m.p_total = quotes[static_cast<std::size_t>(b)].p_total;
          m.prices = quotes[static_cast<std::size_t>(b)].prices;
          serve::decode(serve::encode(m));
        }
      }
    }
    for (int i = 0; i < requests / 8; ++i) {
      Scope s(t, "serve.price_one");
      engine.price_one(in.states[static_cast<std::size_t>(i) % in.states.size()]);
    }
    for (int i = 0; i < 4; ++i) {
      Scope s(t, "serve.reload");
      reloader.reload(serve::load_mechanism_weights(i % 2 ? in.ckpt_a : in.ckpt_b));
    }
  };
  // Size the replay to a quarter of the run.
  int requests = batch * 8;
  {
    Tracer off(false);
    const auto a = Clock::now();
    replay(off, requests);
    const double per = seconds_between(a, Clock::now()) / requests;
    requests = std::max(batch * 8, static_cast<int>(opt.seconds * 0.25 / per));
    requests -= requests % batch;
  }
  Tracer off(false);
  const auto a = Clock::now();
  replay(off, requests);
  const double untraced_s = seconds_between(a, Clock::now());
  const auto b = Clock::now();
  replay(tracer, requests);
  const double traced_s = seconds_between(b, Clock::now());
  reloader.stop();
  const std::string bad = tracer.check();
  if (!bad.empty()) res.fail_check("serve_100 trace: " + bad);

  auto self_ms = [&](const char* n) { return tracer.layer(n).self_ms; };
  auto calls = [&](const char* n) {
    return static_cast<double>(std::max(1L, tracer.layer(n).calls));
  };
  const double price_batch_us = self_ms("serve.price_batch") * 1e3 / requests;
  const double protocol_us = self_ms("serve.protocol") * 1e3 / requests;
  res.add("serve.price_one_us", self_ms("serve.price_one") * 1e3 / calls("serve.price_one"), "us");
  res.add("serve.price_batch_us", price_batch_us, "us");
  res.add("serve.batch_mean", ref.batch_mean, "requests");
  res.add("serve.protocol_us", protocol_us, "us");
  res.add("serve.reload_ms", self_ms("serve.reload") / calls("serve.reload"), "ms");
  res.add("serve.shed", static_cast<double>(ref.shed), "count");
  res.add("serve.latency_ms_p99", quantile(ref.latency_ms, 0.99), "ms");
  res.add("serve.gen_late_ms_p99", quantile(ref.late_ms, 0.99), "ms");
  res.add("serve_100.unattributed_ms",
          mean(ref.latency_ms) - (price_batch_us + protocol_us) * 1e-3, "ms");
  res.add("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0, "%");
}

}  // namespace perfbench
