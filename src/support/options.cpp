#include "support/options.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <optional>
#include <utility>

namespace amm {

namespace {

/// The whole token as a base-10 T; nullopt on an empty token, junk anywhere
/// in it (a leading space or '+' included) or a value out of T's range.
template <typename T>
std::optional<T> parse_number(const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Stores the whole token as a T (see parse_number); false if it is not one.
template <typename T>
std::function<bool(const std::string&)> store_number(T* out) {
  return [out](const std::string& text) {
    const std::optional<T> v = parse_number<T>(text);
    if (v) *out = *v;
    return v.has_value();
  };
}

/// "a|b|c" for --help and error messages.
std::string join(const std::vector<std::string>& values) {
  std::string shown;
  for (const std::string& v : values) {
    if (!shown.empty()) shown += '|';
    shown += v;
  }
  return shown;
}

/// " (text)", or nothing for an empty text.
std::string paren(const std::string& text) { return text.empty() ? "" : " (" + text + ")"; }

/// Sets `*out` to `text` if it is one of `values` (any text when empty).
std::function<bool(const std::string&)> one_of(std::string* out,
                                               std::vector<std::string> values) {
  return [out, values = std::move(values)](const std::string& text) {
    if (!values.empty() && std::find(values.begin(), values.end(), text) == values.end()) {
      return false;
    }
    *out = text;
    return true;
  };
}

}  // namespace

OptionSet::OptionSet(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void OptionSet::add_flag(const std::string& name, bool* out, const std::string& help) {
  options_.push_back(Option{name, help, "", "", true, [out](const std::string&) {
                              *out = true;
                              return true;
                            }});
}

void OptionSet::add_string(const std::string& name, std::string* out, const std::string& help) {
  options_.push_back(Option{name, help, *out, "", false, one_of(out, {})});
}

void OptionSet::add_enum(const std::string& name, std::string* out,
                         std::initializer_list<const char*> allowed, const std::string& help) {
  std::vector<std::string> values(allowed.begin(), allowed.end());
  options_.push_back(
      Option{name, help, *out, "one of: " + join(values), false, one_of(out, values)});
}

void OptionSet::add_u16(const std::string& name, u16* out, const std::string& help,
                        Bounds bounds) {
  add_unsigned(name, help, *out, 0xffffu, bounds,
               [out](u64 v) { *out = static_cast<u16>(v); });
}

void OptionSet::add_u32(const std::string& name, u32* out, const std::string& help,
                        Bounds bounds) {
  add_unsigned(name, help, *out, 0xffffffffu, bounds,
               [out](u64 v) { *out = static_cast<u32>(v); });
}

void OptionSet::add_u64(const std::string& name, u64* out, const std::string& help,
                        Bounds bounds) {
  add_unsigned(name, help, *out, ~u64{0}, bounds, [out](u64 v) { *out = v; });
}

void OptionSet::add_i64(const std::string& name, i64* out, const std::string& help) {
  options_.push_back(Option{name, help, std::to_string(*out), "", false, store_number(out)});
}

void OptionSet::add_double(const std::string& name, double* out, const std::string& help) {
  options_.push_back(Option{name, help, std::to_string(*out), "", false, store_number(out)});
}

void OptionSet::add_positional(const std::string& name, std::string* out,
                               std::initializer_list<const char*> allowed,
                               const std::string& help) {
  std::vector<std::string> values(allowed.begin(), allowed.end());
  positionals_.push_back(
      Option{name, help, "", "one of: " + join(values), false, one_of(out, values)});
}

void OptionSet::require(std::function<bool()> holds, std::string why) {
  checks_.push_back(Check{std::move(holds), std::move(why)});
}

void OptionSet::add_unsigned(const std::string& name, const std::string& help, u64 current,
                             u64 type_max, Bounds bounds, std::function<void(u64)> assign) {
  const u64 lo = bounds.lo;
  const u64 hi = std::min(bounds.hi, type_max);
  std::string allowed;
  if (lo > 0 && hi == type_max) {
    allowed = ">= " + std::to_string(lo);
  } else if (lo > 0 || hi < type_max) {
    allowed = std::to_string(lo) + ".." + std::to_string(hi);
  }
  options_.push_back(Option{name, help, std::to_string(current), std::move(allowed), false,
                            [lo, hi, assign = std::move(assign)](const std::string& text) {
                              const std::optional<u64> v = parse_number<u64>(text);
                              const bool ok = v && *v >= lo && *v <= hi;
                              if (ok) assign(*v);
                              return ok;
                            }});
}

ParseStatus OptionSet::parse(int argc, const char* const* argv) {
  usize next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") return ParseStatus::kHelp;
    if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      if (next_positional == positionals_.size()) {
        return fail("unexpected argument '" + arg + "'");
      }
      const Option& pos = positionals_[next_positional++];
      if (!pos.set(arg)) {
        return fail("invalid " + pos.name + " '" + arg + "'" + paren(pos.allowed));
      }
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const usize eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    Option* opt = find(name);
    if (opt == nullptr) return fail("unknown option --" + name);
    if (opt->is_flag) {
      if (has_value) return fail("--" + name + " takes no value");
      opt->set("");
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) return fail("--" + name + " needs a value");
      value = argv[++i];
    }
    if (!opt->set(value)) {
      return fail("invalid value '" + value + "' for --" + name + paren(opt->allowed));
    }
  }
  if (next_positional < positionals_.size()) {
    const Option& pos = positionals_[next_positional];
    return fail("missing " + pos.name + paren(pos.allowed));
  }
  for (const Check& check : checks_) {
    if (!check.holds()) return fail(check.why);
  }
  return ParseStatus::kOk;
}

void OptionSet::parse_or_exit(int argc, const char* const* argv) {
  switch (parse(argc, argv)) {
    case ParseStatus::kHelp:
      print_help(stdout);
      std::exit(0);
    case ParseStatus::kError:
      std::fprintf(stderr, "%s: %s\n", program_.c_str(), error_.c_str());
      std::exit(2);
    case ParseStatus::kOk:
      break;
  }
}

void OptionSet::print_help(std::FILE* out) const {
  std::string usage = "usage: " + program_;
  for (const Option& pos : positionals_) usage += " <" + pos.name + ">";
  usage += " [options]";
  std::fprintf(out, "%s — %s\n%s\n", program_.c_str(), summary_.c_str(), usage.c_str());
  for (const Option& pos : positionals_) {
    std::fprintf(out, "  <%s>%*s%s%s\n", pos.name.c_str(),
                 static_cast<int>(pos.name.size() < 24 ? 24 - pos.name.size() : 1), "",
                 pos.help.c_str(), paren(pos.allowed).c_str());
  }
  for (const Option& opt : options_) {
    const std::string left = "--" + opt.name + (opt.is_flag ? "" : " <v>");
    std::string right = opt.help + paren(opt.allowed);
    if (!opt.is_flag) right += " [default: " + opt.default_repr + "]";
    std::fprintf(out, "  %-26s%s\n", left.c_str(), right.c_str());
  }
  std::fprintf(out, "  %-26s%s\n", "-h, --help", "print this help and exit");
}

OptionSet::Option* OptionSet::find(const std::string& name) {
  for (Option& opt : options_) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

ParseStatus OptionSet::fail(std::string why) {
  error_ = std::move(why);
  return ParseStatus::kError;
}

}  // namespace amm
