#include "support/cli.h"

#include <algorithm>

#include "support/check.h"

namespace fdlsp {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    FDLSP_REQUIRE(arg.rfind("--", 0) == 0,
                  "arguments must be of the form --name[=value]");
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_.insert_or_assign(std::string(arg), std::string("1"));
    } else {
      values_.insert_or_assign(std::string(arg.substr(0, eq)),
                               std::string(arg.substr(eq + 1)));
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

void CliArgs::reject_unknown(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [name, value] : values_)
    FDLSP_REQUIRE(std::find(known.begin(), known.end(), name) != known.end(),
                  "unknown flag --" + name);
}

}  // namespace fdlsp
