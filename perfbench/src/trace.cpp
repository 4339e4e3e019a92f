#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::open(const char* name) {
  return push(name, stack_.empty() ? -1 : stack_.back(), false);
}

int Tracer::open_replay(const char* name, int parent) {
  return push(name, parent, true);
}

int Tracer::push(const char* name, int parent, bool replay) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.replay = replay;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scopes close innermost-first; tolerate out-of-order closes anyway.
  auto it = std::find(stack_.rbegin(), stack_.rend(), id);
  if (it != stack_.rend()) stack_.erase(std::next(it).base());
}

std::vector<double> Tracer::self_ns() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
  }
  return self;
}

std::map<std::string, Tracer::Layer> Tracer::by_name() const {
  std::map<std::string, Layer> out;
  const std::vector<double> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Layer& l = out[spans_[i].name];
    l.self_ms += self[i] * 1e-6;
    ++l.calls;
  }
  return out;
}

Tracer::Layer Tracer::layer(const std::string& name) const {
  const auto all = by_name();
  const auto it = all.find(name);
  return it == all.end() ? Layer{} : it->second;
}

std::string Tracer::check() const {
  std::ostringstream why;
  const std::vector<double> self = self_ns();
  std::vector<std::int64_t> last_nested_end(spans_.size(), -1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) {
      why << "span " << i << " (" << s.name << ") never closed";
      return why.str();
    }
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= i) {
      why << "span " << i << " has a parent recorded after it";
      return why.str();
    }
    const auto p = static_cast<std::size_t>(s.parent);
    const Span& ps = spans_[p];
    if (s.replay) {
      if (s.start_ns < ps.end_ns) {
        why << "replay span " << s.name << " starts inside its parent "
            << ps.name;
        return why.str();
      }
    } else {
      if (s.start_ns < ps.start_ns || s.end_ns > ps.end_ns) {
        why << "span " << s.name << " escapes its parent " << ps.name;
        return why.str();
      }
      if (s.start_ns < last_nested_end[p]) {
        why << "span " << s.name << " overlaps a sibling under " << ps.name;
        return why.str();
      }
      last_nested_end[p] = s.end_ns;
    }
  }
  // Walk each span up to its root: the self times of a root's tree must
  // add up to the root's duration (a wrong parent link breaks this).
  std::vector<std::size_t> root(spans_.size());
  std::vector<double> tree_self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    root[i] = p < 0 ? i : root[static_cast<std::size_t>(p)];
    tree_self[root[i]] += self[i];
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    const double dur =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    if (std::fabs(tree_self[i] - dur) > 1e-6 * std::max(dur, 1.0)) {
      why << "root " << spans_[i].name << ": self times do not sum to it";
      return why.str();
    }
  }
  return "";
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    note("cannot write trace to " + path);
    return;
  }
  const std::vector<double> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent
       << ", \"replay\": " << (s.replay ? "true" : "false")
       << ", \"self_ns\": " << static_cast<std::int64_t>(self[i]) << "}\n";
  }
}

}  // namespace perfbench
