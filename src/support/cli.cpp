#include "support/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace amm {

namespace {

/// The whole token as a T; nullopt on an empty token, junk anywhere in it
/// or a value out of T's range.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  if (text.empty()) return std::nullopt;
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) : program_(argc > 0 ? argv[0] : "") {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    std::string name(arg.substr(2));
    // "--name=value" form.
    if (const auto eq = name.find('='); eq != std::string::npos) {
      values_[name.substr(0, eq)] = name.substr(eq + 1);
      continue;
    }
    // "--name value" form when the next token is not itself a flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_[name] = argv[i + 1];
      ++i;
    } else {
      values_[name] = "";  // bare flag
    }
  }
}

std::optional<std::string> CliArgs::lookup(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool CliArgs::has_flag(const std::string& name) const { return values_.contains(name); }

i64 CliArgs::get_int(const std::string& name, i64 fallback) const {
  const auto v = lookup(name);
  if (!v) return fallback;
  const auto parsed = parse_whole<i64>(*v);
  if (!parsed) reject(name, "expected an integer");
  return *parsed;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto v = lookup(name);
  if (!v) return fallback;
  const auto parsed = parse_whole<double>(*v);
  if (!parsed) reject(name, "expected a number");
  return *parsed;
}

std::string CliArgs::get_string(const std::string& name, const std::string& fallback) const {
  const auto v = lookup(name);
  return v && !v->empty() ? *v : fallback;
}

void CliArgs::reject(const std::string& name, const std::string& why) const {
  std::fprintf(stderr, "%s: --%s '%s': %s\n", program_.c_str(), name.c_str(),
               lookup(name).value_or("").c_str(), why.c_str());
  std::exit(2);
}

}  // namespace amm
