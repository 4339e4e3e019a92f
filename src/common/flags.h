// Minimal command-line flag parsing for the CLI tools.
//
// Grammar: positionals and flags may interleave; flags are
// `--name=value`, `--name value`, or bare `--name` (boolean). A value
// starting with "--" is treated as the next flag, making the bare-switch
// form unambiguous. Passing the same flag twice is a hard error
// (InvariantError) — silent last-wins hid typos in long sweep command
// lines.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace chiron {

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);
  explicit FlagParser(const std::vector<std::string>& args);

  /// Positional arguments in order (argv[0] is not included).
  const std::vector<std::string>& positional() const { return positional_; }

  /// True when --name was present (with or without a value).
  bool has(const std::string& name) const;

  /// String value of --name, or `fallback` when absent. A bare switch
  /// yields the empty string.
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;

  /// Typed accessors; throw InvariantError on malformed or out-of-range
  /// numbers (get_int rejects values outside [INT_MIN, INT_MAX] and
  /// get_double rejects literals strtod flags with ERANGE).
  double get_double(const std::string& name, double fallback) const;
  int get_int(const std::string& name, int fallback) const;

  /// Flags that were provided but never queried — call after reading all
  /// known flags to reject typos.
  std::vector<std::string> unknown_flags(
      const std::vector<std::string>& known) const;

 private:
  void parse(const std::vector<std::string>& args);

  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

/// The checked number parsers behind get_double/get_int, for values that
/// arrive some other way (environment variables): the whole of `text`
/// must parse and be in range, else InvariantError naming `context`.
double parse_double(const std::string& text, const std::string& context);
int parse_int(const std::string& text, const std::string& context);

/// Parses a comma-separated list of numbers ("5,10.5,20") through the
/// same checked strtod path as FlagParser::get_double. Throws
/// InvariantError naming `context` and the offending element on empty
/// lists, empty elements, malformed numbers, or out-of-range literals.
std::vector<double> parse_double_list(const std::string& text,
                                      const std::string& context);

/// Value of the standard `--threads` flag shared by every entry point:
/// N >= 1 is an explicit pool size, 0 (or an absent flag) means "auto"
/// (hardware concurrency). Throws InvariantError on negative or malformed
/// values. Callers pass the result to runtime::set_threads.
int threads_flag(const FlagParser& flags, int fallback = 0);

}  // namespace chiron
