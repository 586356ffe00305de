// Minimal --flag=value command-line parsing for benches and examples.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace fdlsp {

/// Parses arguments of the form `--name=value` or bare `--name` (value "1").
/// Unknown positional arguments raise contract_error so typos fail loudly.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if --name was present.
  bool has(const std::string& name) const;

  /// String value of --name, or fallback if absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Integer value of --name, or fallback if absent.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// Double value of --name, or fallback if absent.
  double get_double(const std::string& name, double fallback) const;

  /// Raises contract_error naming the first flag not in `known`, for tools
  /// where a misspelled or stale flag must fail instead of being ignored.
  void reject_unknown(std::initializer_list<std::string_view> known) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace fdlsp
