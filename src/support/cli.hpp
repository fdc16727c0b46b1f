// Minimal command-line parsing shared by example and experiment binaries:
// "--name value" and "--flag" pairs, with typed getters and defaults.
//
// A number flag that is given must carry one whole number: a missing value,
// a leading space or '+', trailing junk ("--trials 3x", "--seed abc") or an
// out-of-range value is never read as a guess. The getters print the flag
// and the value and exit with status 2 instead.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "support/types.hpp"

namespace amm {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has_flag(const std::string& name) const;
  i64 get_int(const std::string& name, i64 fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name, const std::string& fallback) const;

  /// Prints "<program>: --<name> '<value>': <why>" to stderr and exits 2.
  [[noreturn]] void reject(const std::string& name, const std::string& why) const;

 private:
  std::optional<std::string> lookup(const std::string& name) const;

  std::string program_;
  std::unordered_map<std::string, std::string> values_;
};

}  // namespace amm
