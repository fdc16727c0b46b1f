// Command-line options for every binary in the repo: the experiment, bench
// and example binaries (through exp::Harness) and the runtime tools
// (amm_node, amm_ctl, amm_swarm, amm_logtool).
//
// Each option is declared exactly once — name, bound variable, help line —
// and everything else follows from the declaration: `--help` text with the
// captured default, `--name value` / `--name=value` parsing, range and
// enum-membership validation, and rejection of unknown flags and stray
// arguments.
//
// Numbers follow one rule: the value is the whole token in base 10, read
// with std::from_chars, inside the type and the option's bounds. "3x",
// " 3", "+3", "0x10" and (for an integer) "1e3" are errors, never guesses,
// and an unsigned option refuses a minus sign instead of wrapping it.
//
//   u32 n = 3;
//   OptionSet opts("exp_e1_flp", "asynchronous impossibility");
//   opts.add_u32("n", &n, "processes", {2, 8});
//   opts.parse_or_exit(argc, argv);  // --help: exit 0; any error: exit 2
#pragma once

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace amm {

enum class ParseStatus : u8 {
  kOk,    ///< every argument consumed and validated
  kHelp,  ///< -h/--help seen — print_help() and exit 0
  kError, ///< unknown flag, stray argument, bad value or failed check; see error()
};

/// Inclusive bounds on an unsigned option; the default admits the whole type.
struct Bounds {
  u64 lo = 0;
  u64 hi = ~u64{0};
};

class OptionSet {
 public:
  OptionSet(std::string program, std::string summary);

  // One add_* per bound type, with distinct names instead of overloads:
  // usize aliases u64 on LP64, so an overload set could not carry both.

  void add_flag(const std::string& name, bool* out, const std::string& help);
  void add_string(const std::string& name, std::string* out, const std::string& help);
  /// A string option restricted to a fixed vocabulary; --help lists it and
  /// parse() rejects anything else.
  void add_enum(const std::string& name, std::string* out,
                std::initializer_list<const char*> allowed, const std::string& help);
  void add_u16(const std::string& name, u16* out, const std::string& help, Bounds bounds = {});
  void add_u32(const std::string& name, u32* out, const std::string& help, Bounds bounds = {});
  void add_u64(const std::string& name, u64* out, const std::string& help, Bounds bounds = {});
  void add_i64(const std::string& name, i64* out, const std::string& help);
  void add_double(const std::string& name, double* out, const std::string& help);
  /// A required bare (non `--`) argument, e.g. a subcommand; filled in
  /// declaration order. Restricted to `allowed` when nonempty.
  void add_positional(const std::string& name, std::string* out,
                      std::initializer_list<const char*> allowed, const std::string& help);
  /// A condition across options, checked once every argument has parsed:
  /// parse() fails with `why` unless `holds()`.
  void require(std::function<bool()> holds, std::string why);

  ParseStatus parse(int argc, const char* const* argv);
  /// parse(), then on --help print the help to stdout and exit 0, and on an
  /// error print "<program>: <error>" to stderr and exit 2.
  void parse_or_exit(int argc, const char* const* argv);

  const std::string& error() const { return error_; }
  void print_help(std::FILE* out) const;

 private:
  struct Option {
    std::string name;
    std::string help;
    std::string default_repr;
    std::string allowed;  ///< rendered vocabulary or bounds; empty = anything
    bool is_flag = false;
    std::function<bool(const std::string&)> set;
  };
  struct Check {
    std::function<bool()> holds;
    std::string why;
  };

  void add_unsigned(const std::string& name, const std::string& help, u64 current,
                    u64 type_max, Bounds bounds, std::function<void(u64)> assign);
  Option* find(const std::string& name);
  ParseStatus fail(std::string why);

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  std::vector<Option> positionals_;
  std::vector<Check> checks_;
  std::string error_;
};

}  // namespace amm
