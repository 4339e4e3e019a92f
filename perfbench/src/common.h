// Shared plumbing of chiron_perfbench: options, the result record
// printed as the last stdout line, timing and percentile helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run artifacts (span dumps, the utility ledger).
  std::string out_dir;
  /// Identifies the benchmark binary (size and mtime), keying the ledger.
  std::string build_id;
};

/// One run's verdict and metrics; printed as a single JSON object.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check: the run is no longer correct.
  void fail_check(const std::string& why);
  /// Counts one failed op (also a failed check when `why` is non-empty).
  void fail_op(const std::string& why);

  long attempted = 0;
  long failed = 0;
  bool correct = true;

  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int reported_ = 0;  // failure messages echoed to stderr
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Ops an end-to-end run completes at least, so that at least ten samples
/// lie beyond p90; a closed loop runs past --seconds until it has them.
constexpr long kMinOps = 100;

/// Run-level figures are medians over this many consecutive windows of a
/// run's ops: a host slowdown confined to part of a run moves one window,
/// not the reported figure.
constexpr int kWindows = 5;

/// Median over `windows` consecutive windows of `v` of each window's
/// quantile q.
double windowed_quantile(const std::vector<double>& v, double q,
                         int windows = kWindows);

/// Closed-loop op log: per op its latency and its completion time
/// (seconds since the loop started; resets and updates between ops count
/// in the completion times, so in throughput, but in no latency).
struct OpLog {
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  void add(double lat_ms, double t_s) {
    latency_ms.push_back(lat_ms);
    done_s.push_back(t_s);
  }
  long ops() const { return static_cast<long>(latency_ms.size()); }
  /// Median over windows of ops per second of window wall.
  double throughput() const;
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Stderr diagnostics (stdout is reserved for the result line).
void note(const std::string& msg);

}  // namespace perfbench
