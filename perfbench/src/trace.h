// In-memory span recorder of the traced benchmark run.
//
// A span has a name, a start, an end and a parent. Two kinds of child:
//   nested — opened while its parent is open, inside the parent's
//            interval (the benchmark's own call into a layer, made from
//            inside another layer's span);
//   replay — opened after its parent closed, on the parent's recorded
//            inputs, because the parent's call performs that work
//            internally where the benchmark cannot put a span (e.g. the
//            EconomicsPlane passes inside EdgeLearnEnv::step). The replay
//            is attributed to the parent: the parent's self time is its
//            duration minus every child's duration, so the work is counted
//            once, under the layer that does it.
// Spans stay in memory and are written out (JSONL) when the run ends.
// Disabled tracers read no clock and store nothing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    int parent = -1;           // -1 for a root
    bool replay = false;
  };
  struct Layer {
    double self_ms = 0.0;  // Σ self time over the layer's spans
    long calls = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Opens a span nested in the innermost open span (a root if none).
  int open(const char* name);
  /// Opens a replay span attributed to the closed span `parent`.
  int open_replay(const char* name, int parent);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the durations of all children, ns, per span.
  std::vector<double> self_ns() const;
  /// Self time and call count per span name.
  std::map<std::string, Layer> by_name() const;
  /// One name's entry of by_name() (zero when the name never ran).
  Layer layer(const std::string& name) const;
  /// Verifies the tree: every span closed; nested children inside their
  /// parent's interval and disjoint from each other; replay children
  /// after their parent; and the self times of each root's tree summing
  /// to the root's duration. Returns an empty string or the first
  /// violation.
  std::string check() const;
  void write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  int push(const char* name, int parent, bool replay);

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans, innermost last
};

/// RAII span; `replay_parent >= 0` opens a replay span.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  Scope(Tracer& t, const char* name, int replay_parent)
      : t_(t), id_(t.open_replay(name, replay_parent)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
