#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "common/error.h"

namespace chiron {

// Shared checked-strtod path: the whole of `text` must parse, and the
// result must be finite enough for strtod (ERANGE covers over/underflow
// to HUGE_VAL/0 of out-of-range literals).
double parse_double(const std::string& text, const std::string& context) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  CHIRON_CHECK_MSG(end != text.c_str() && *end == '\0',
                   context << " expects a number, got '" << text << "'");
  CHIRON_CHECK_MSG(errno != ERANGE,
                   context << " value '" << text << "' is out of range");
  return v;
}

int parse_int(const std::string& text, const std::string& context) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  CHIRON_CHECK_MSG(end != text.c_str() && *end == '\0',
                   context << " expects an integer, got '" << text << "'");
  CHIRON_CHECK_MSG(errno != ERANGE && v >= INT_MIN && v <= INT_MAX,
                   context << " value '" << text << "' is out of int range");
  return static_cast<int>(v);
}

FlagParser::FlagParser(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

FlagParser::FlagParser(const std::vector<std::string>& args) { parse(args); }

void FlagParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      positional_.push_back(a);
      continue;
    }
    const std::string body = a.substr(2);
    CHIRON_CHECK_MSG(!body.empty(), "bare '--' argument");
    const std::size_t eq = body.find('=');
    std::string name;
    std::string value;
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      // --name value (unless the next token is another flag).
      name = body;
      value = args[i + 1];
      ++i;
    } else {
      name = body;  // bare switch
    }
    CHIRON_CHECK_MSG(flags_.emplace(name, value).second,
                     "duplicate flag --" << name);
  }
}

bool FlagParser::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::get(const std::string& name,
                            const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double FlagParser::get_double(const std::string& name,
                              double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_double(it->second, "--" + name);
}

int FlagParser::get_int(const std::string& name, int fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_int(it->second, "--" + name);
}

std::vector<double> parse_double_list(const std::string& text,
                                      const std::string& context) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end =
        comma == std::string::npos ? text.size() : comma;
    const std::string element = text.substr(start, end - start);
    CHIRON_CHECK_MSG(!element.empty(),
                     context << " has an empty element in '" << text << "'");
    out.push_back(parse_double(
        element, context + " element '" + element + "'"));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  CHIRON_CHECK_MSG(!out.empty(), context << " expects a non-empty list");
  return out;
}

int threads_flag(const FlagParser& flags, int fallback) {
  const int n = flags.get_int("threads", fallback);
  CHIRON_CHECK_MSG(n >= 0, "--threads must be >= 0 (0 = auto), got " << n);
  return n;
}

std::vector<std::string> FlagParser::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end())
      out.push_back(name);
  }
  return out;
}

}  // namespace chiron
