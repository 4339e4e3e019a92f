// chiron_serve — the mechanism serving CLI (DESIGN.md §5.10).
//
//   chiron_serve init --ckpt PATH [--nodes N] [--budget B] [--seed S]
//                     [--episodes E]
//       Build a mechanism for an N-node market (optionally train E
//       episodes) and write a v2 checkpoint to PATH. The fast way to get
//       a servable checkpoint for tests and benches; real deployments
//       use `chiron_cli train --save`.
//
//   chiron_serve gen-script --ckpt PATH --count K [--seed S]
//                           [--reload PATH2] [--out PATH]
//       Emit a deterministic client script of K price requests shaped for
//       PATH's observation dim. With --reload the script continues with a
//       mid-stream hot reload to PATH2 followed by the SAME K states under
//       fresh ids — so a decoded transcript shows exactly which responses
//       a reload changes.
//
//   chiron_serve encode [SCRIPT]     text script (file or stdin) → frames
//   chiron_serve decode              frames on stdin → text, sorted by id
//
//   chiron_serve serve --ckpt PATH [--workers W] [--batch-max B]
//                      [--queue-cap Q] [--threads T] [--metrics-out PATH]
//       Long-running server: frames in on stdin, response frames out on
//       stdout. Reload frames drain the queue first, so the old/new split
//       of a scripted session is frame-order deterministic.
//
// Script grammar (one request per line, '#' comments):
//   price <id> <v1> ... <vD>
//   reload <id> <checkpoint-path>
//   shutdown <id>
//
// A full byte-determinism check is one pipeline:
//   chiron_serve encode script.txt | chiron_serve serve --ckpt m.ckpt |
//     chiron_serve decode
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/env.h"
#include "core/mechanism.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/gemm.h"

using namespace chiron;

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_float(float v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return buf;
}

int cmd_init(const FlagParser& flags) {
  const std::string ckpt = flags.get("ckpt");
  CHIRON_CHECK_MSG(!ckpt.empty(), "init needs --ckpt PATH");
  core::EnvConfig cfg;
  cfg.num_nodes = flags.get_int("nodes", 5);
  cfg.budget = flags.get_double("budget", 80.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 97));
  cfg.data_bits_per_node = 5e8 / cfg.num_nodes;
  core::EdgeLearnEnv env(cfg);
  // --episodes 0 (the default) checkpoints the freshly initialized
  // policies — enough for serving tests, instant to produce.
  const int episodes = flags.get_int("episodes", 0);
  core::ChironConfig cc;
  cc.episodes = std::max(1, episodes);
  cc.seed = cfg.seed + 1;
  core::HierarchicalMechanism mechanism(env, cc);
  if (episodes > 0) mechanism.train();
  mechanism.save(ckpt);
  std::cout << "wrote " << ckpt << " (obs " << env.exterior_state_dim()
            << ", nodes " << env.num_nodes() << ", price cap "
            << env.price_cap() << ")\n";
  return 0;
}

int cmd_gen_script(const FlagParser& flags) {
  const std::string ckpt = flags.get("ckpt");
  CHIRON_CHECK_MSG(!ckpt.empty(), "gen-script needs --ckpt PATH");
  const int count = flags.get_int("count", 16);
  CHIRON_CHECK_MSG(count >= 1, "--count must be >= 1");
  const serve::MechanismWeights w = serve::load_mechanism_weights(ckpt);
  const std::int64_t dim = w.info.exterior_obs_dim;

  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 5)));
  std::vector<std::vector<float>> states(static_cast<std::size_t>(count));
  for (auto& s : states) {
    s.resize(static_cast<std::size_t>(dim));
    // Exterior states are normalized-ish features; uniform [0,1) draws
    // are in-distribution enough to exercise the full pricing path.
    for (float& v : s) v = static_cast<float>(rng.uniform());
  }

  std::ofstream file;
  std::ostream* os = &std::cout;
  if (flags.has("out")) {
    file.open(flags.get("out"), std::ios::trunc);
    CHIRON_CHECK_MSG(file.good(), "cannot open --out for writing");
    os = &file;
  }

  std::uint64_t id = 1;
  auto emit_prices = [&] {
    for (const auto& s : states) {
      *os << "price " << id++;
      for (float v : s) *os << ' ' << fmt_float(v);
      *os << '\n';
    }
  };
  emit_prices();
  if (flags.has("reload")) {
    const std::string reload_path = flags.get("reload");
    CHIRON_CHECK_MSG(!reload_path.empty(), "--reload needs a path");
    *os << "reload " << id++ << ' ' << reload_path << '\n';
    emit_prices();  // same states, fresh ids — isolates the weight change
  }
  *os << "shutdown " << id << '\n';
  CHIRON_CHECK_MSG(os->good(), "script write failed");
  return 0;
}

serve::Message parse_script_line(const std::string& line, int lineno) {
  std::istringstream ss(line);
  std::string cmd;
  ss >> cmd;
  serve::Message m;
  CHIRON_CHECK_MSG(static_cast<bool>(ss >> m.id),
                   "script line " << lineno << ": missing request id");
  if (cmd == "price") {
    m.type = serve::MsgType::kPriceRequest;
    float v = 0.0f;
    while (ss >> v) m.state.push_back(v);
    CHIRON_CHECK_MSG(ss.eof(), "script line " << lineno
                                              << ": malformed state value");
  } else if (cmd == "reload") {
    m.type = serve::MsgType::kReload;
    CHIRON_CHECK_MSG(static_cast<bool>(ss >> m.path),
                     "script line " << lineno << ": reload needs a path");
  } else if (cmd == "shutdown") {
    m.type = serve::MsgType::kShutdown;
  } else {
    CHIRON_CHECK_MSG(false, "script line " << lineno << ": unknown command '"
                                           << cmd << "'");
  }
  return m;
}

int cmd_encode(const FlagParser& flags) {
  std::ifstream file;
  std::istream* is = &std::cin;
  if (flags.positional().size() > 1) {
    file.open(flags.positional()[1]);
    CHIRON_CHECK_MSG(file.good(), "cannot open script '"
                                      << flags.positional()[1] << "'");
    is = &file;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(*is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    serve::write_frame(std::cout, serve::encode(parse_script_line(line,
                                                                  lineno)));
  }
  std::cout.flush();
  return 0;
}

int cmd_decode() {
  struct Row {
    std::uint64_t id;
    std::string text;
  };
  std::vector<Row> rows;
  std::vector<std::uint8_t> payload;
  while (serve::read_frame(std::cin, &payload)) {
    const serve::Message m = serve::decode(payload);
    CHIRON_CHECK_MSG(m.type == serve::MsgType::kPriceResponse,
                     "decode expects response frames, got type "
                         << static_cast<int>(m.type));
    std::ostringstream line;
    line << m.id << ' ' << serve::status_name(m.status);
    if (m.status == serve::Status::kOk) {
      line << ' ' << fmt_double(m.p_total);
      for (double p : m.prices) line << ' ' << fmt_double(p);
    } else if (!m.error.empty()) {
      line << ' ' << m.error;
    }
    rows.push_back({m.id, line.str()});
  }
  // Responses arrive in completion order (nondeterministic across worker
  // counts); id order is the canonical transcript.
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.id < b.id; });
  for (const Row& r : rows) std::cout << r.text << '\n';
  return 0;
}

int cmd_serve(const FlagParser& flags) {
  const std::string ckpt = flags.get("ckpt");
  CHIRON_CHECK_MSG(!ckpt.empty(), "serve needs --ckpt PATH");
  serve::ServerConfig cfg;
  cfg.workers = flags.get_int("workers", 1);
  cfg.batch_max = flags.get_int("batch-max", 32);
  const int cap = flags.get_int("queue-cap", 1024);
  CHIRON_CHECK_MSG(cap >= 1, "--queue-cap must be >= 1");
  cfg.queue_cap = static_cast<std::size_t>(cap);

  const std::string metrics_out = flags.get("metrics-out", "");
  if (flags.has("metrics-out")) {
    CHIRON_CHECK_MSG(!metrics_out.empty(), "--metrics-out needs a path");
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().set_enabled(true);
  }

  std::mutex out_mu;
  serve::MechanismServer server(
      serve::load_mechanism_weights(ckpt), cfg,
      [&out_mu](const serve::Message& m) {
        std::lock_guard<std::mutex> lock(out_mu);
        serve::write_frame(std::cout, serve::encode(m));
      });

  std::vector<std::uint8_t> payload;
  bool shutdown = false;
  while (!shutdown && serve::read_frame(std::cin, &payload)) {
    serve::Message m = serve::decode(payload);
    switch (m.type) {
      case serve::MsgType::kPriceRequest:
        server.submit(std::move(m));
        break;
      case serve::MsgType::kReload:
        // Drain before publishing so every request framed before the
        // reload is answered on the old weights, every one after on the
        // new — byte-identical transcripts at any worker count.
        server.drain();
        server.reload(serve::load_mechanism_weights(m.path));
        break;
      case serve::MsgType::kShutdown:
        shutdown = true;
        break;
      case serve::MsgType::kPriceResponse:
        CHIRON_CHECK_MSG(false, "client sent a response frame");
    }
  }
  server.stop();  // drains whatever is still queued, joins the workers
  std::cout.flush();

  if (!metrics_out.empty()) {
    obs::MetricsRegistry::instance().set_enabled(false);
    std::ofstream out(metrics_out, std::ios::trunc);
    if (out.good()) obs::MetricsRegistry::instance().write_json(out);
  }
  const serve::ServerStats stats = server.stats();
  std::cerr << "served " << stats.served << " shed " << stats.shed << " bad "
            << stats.bad << " reloads " << stats.reloads << " batches "
            << stats.batches << " max_batch " << stats.max_batch << "\n";
  return 0;
}

void usage() {
  std::cerr <<
      "usage: chiron_serve <init|gen-script|encode|decode|serve> [flags]\n"
      "  init:       --ckpt PATH [--nodes N --budget B --seed S"
      " --episodes E]\n"
      "  gen-script: --ckpt PATH --count K [--seed S --reload PATH2"
      " --out PATH]\n"
      "  encode:     [SCRIPT]  (text script file or stdin -> frames)\n"
      "  decode:     (response frames on stdin -> text sorted by id)\n"
      "  serve:      --ckpt PATH [--workers W --batch-max B --queue-cap Q\n"
      "               --threads T --metrics-out PATH]\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    FlagParser flags(argc, argv);
    if (flags.positional().empty()) {
      usage();
      return 2;
    }
    runtime::set_threads(threads_flag(flags));
    tensor::active_isa();  // a bad CHIRON_ISA fails here, not in a worker
    const std::string& cmd = flags.positional().front();
    if (cmd == "init") return cmd_init(flags);
    if (cmd == "gen-script") return cmd_gen_script(flags);
    if (cmd == "encode") return cmd_encode(flags);
    if (cmd == "decode") return cmd_decode();
    if (cmd == "serve") return cmd_serve(flags);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
