#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::fail_check(const std::string& why) {
  correct = false;
  if (reported_ < 20) note("check failed: " + why);
  ++reported_;
}

void Result::fail_op(const std::string& why) {
  ++failed;
  if (!why.empty()) fail_check(why);
}

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char num[64];
    // A non-finite value is not JSON; report it as a failed check instead.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double windowed_quantile(const std::vector<double>& v, double q, int windows) {
  std::vector<double> per;
  const std::size_t n = v.size();
  const auto k = static_cast<std::size_t>(windows);
  for (std::size_t w = 0; w < k; ++w) {
    const auto a = v.begin() + static_cast<long>(n * w / k);
    const auto b = v.begin() + static_cast<long>(n * (w + 1) / k);
    if (a != b) per.push_back(quantile(std::vector<double>(a, b), q));
  }
  return quantile(per, 0.5);
}

double OpLog::throughput() const {
  std::vector<double> per;
  const std::size_t n = done_s.size();
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::size_t a = n * w / kWindows, b = n * (w + 1) / kWindows;
    if (a == b) continue;
    const double start = a == 0 ? 0.0 : done_s[a - 1];
    per.push_back(static_cast<double>(b - a) / (done_s[b - 1] - start));
  }
  return quantile(per, 0.5);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void note(const std::string& msg) { std::cerr << "perfbench: " << msg << "\n"; }

}  // namespace perfbench
