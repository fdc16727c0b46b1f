// tools/cli.hpp — the shared options API of the runtime tools (amm_node,
// amm_ctl, amm_swarm, amm_logtool).
//
// Each option is declared exactly once — name, bound variable, help line —
// and everything else follows from the declaration: `--help` text with the
// captured default, `--name value` / `--name=value` parsing, typed range
// checking, enum-membership validation, and unknown-flag rejection (the
// old per-tool CliArgs parsers silently ignored typos).
//
//   tools::NodeConfig cfg;
//   tools::OptionSet opts("amm_node", "one append-memory node");
//   tools::add_node_options(opts, &cfg);
//   switch (opts.parse(argc, argv)) { ... }
//
// NodeConfig is the one struct all node-shaped tools share; the storage
// flags (--store-dir, --fsync, ...) feed storage::FileLogConfig and
// mp::AbdConfig in amm_node.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace amm::tools {

enum class ParseStatus : u8 {
  kOk,    ///< every argument consumed and validated
  kHelp,  ///< -h/--help seen — print_help() and exit 0
  kError, ///< unknown flag, missing value, or failed validation; see error()
};

class OptionSet {
 public:
  OptionSet(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  // One add_* per bound type, with distinct names instead of overloads:
  // usize aliases u64 on LP64, so an overload set could not carry both.

  void add_flag(const std::string& name, bool* out, const std::string& help) {
    options_.push_back(Option{name, help, "", "", true,
                              [out](const std::string&) {
                                *out = true;
                                return true;
                              }});
  }

  void add_string(const std::string& name, std::string* out, const std::string& help) {
    options_.push_back(Option{name, help, *out, "", false,
                              [out](const std::string& text) {
                                *out = text;
                                return true;
                              }});
  }

  /// A string option restricted to a fixed vocabulary; --help lists it and
  /// parse() rejects anything else.
  void add_enum(const std::string& name, std::string* out,
                std::initializer_list<const char*> allowed, const std::string& help) {
    std::vector<std::string> values(allowed.begin(), allowed.end());
    std::string shown;
    for (const std::string& v : values) {
      if (!shown.empty()) shown += '|';
      shown += v;
    }
    options_.push_back(Option{name, help, *out, shown, false,
                              [out, values = std::move(values)](const std::string& text) {
                                for (const std::string& v : values) {
                                  if (text == v) {
                                    *out = text;
                                    return true;
                                  }
                                }
                                return false;
                              }});
  }

  void add_u16(const std::string& name, u16* out, const std::string& help) {
    add_unsigned(name, help, std::to_string(*out), 0xffffu,
                 [out](u64 v) { *out = static_cast<u16>(v); });
  }
  void add_u32(const std::string& name, u32* out, const std::string& help) {
    add_unsigned(name, help, std::to_string(*out), 0xffffffffu,
                 [out](u64 v) { *out = static_cast<u32>(v); });
  }
  void add_u64(const std::string& name, u64* out, const std::string& help) {
    add_unsigned(name, help, std::to_string(*out), ~static_cast<u64>(0),
                 [out](u64 v) { *out = v; });
  }

  void add_i64(const std::string& name, i64* out, const std::string& help) {
    options_.push_back(Option{name, help, std::to_string(*out), "", false,
                              [out](const std::string& text) {
                                if (text.empty()) return false;
                                errno = 0;
                                char* end = nullptr;
                                const long long v = std::strtoll(text.c_str(), &end, 0);
                                if (errno != 0 || end != text.c_str() + text.size()) return false;
                                *out = static_cast<i64>(v);
                                return true;
                              }});
  }

  void add_double(const std::string& name, double* out, const std::string& help) {
    options_.push_back(Option{name, help, std::to_string(*out), "", false,
                              [out](const std::string& text) {
                                if (text.empty()) return false;
                                errno = 0;
                                char* end = nullptr;
                                const double v = std::strtod(text.c_str(), &end);
                                if (errno != 0 || end != text.c_str() + text.size()) return false;
                                *out = v;
                                return true;
                              }});
  }

  /// A required bare (non `--`) argument, e.g. a subcommand; filled in
  /// declaration order. Restricted to `allowed` when nonempty.
  void add_positional(const std::string& name, std::string* out,
                      std::initializer_list<const char*> allowed, const std::string& help) {
    std::vector<std::string> values(allowed.begin(), allowed.end());
    std::string shown;
    for (const std::string& v : values) {
      if (!shown.empty()) shown += '|';
      shown += v;
    }
    positionals_.push_back(Positional{name, help, shown,
                                      [out, values = std::move(values)](const std::string& text) {
                                        if (!values.empty()) {
                                          bool found = false;
                                          for (const std::string& v : values) found = found || text == v;
                                          if (!found) return false;
                                        }
                                        *out = text;
                                        return true;
                                      }});
  }

  ParseStatus parse(int argc, const char* const* argv) {
    usize next_positional = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-h" || arg == "--help") return ParseStatus::kHelp;
      if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
        if (next_positional < positionals_.size()) {
          Positional& pos = positionals_[next_positional++];
          if (!pos.set(arg)) {
            return fail("invalid " + pos.name + " '" + arg + "' (one of: " + pos.allowed + ")");
          }
          continue;
        }
        return fail("unexpected argument '" + arg + "'");
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
        std::string why = "invalid value '" + value + "' for --" + name;
        if (!opt->allowed.empty()) why += " (one of: " + opt->allowed + ")";
        return fail(why);
      }
    }
    if (next_positional < positionals_.size()) {
      return fail("missing " + positionals_[next_positional].name + " (one of: " +
                  positionals_[next_positional].allowed + ")");
    }
    return ParseStatus::kOk;
  }

  const std::string& error() const { return error_; }

  void print_help(std::FILE* out) const {
    std::string usage = "usage: " + program_;
    for (const Positional& pos : positionals_) usage += " <" + pos.name + ">";
    usage += " [options]";
    std::fprintf(out, "%s — %s\n%s\n", program_.c_str(), summary_.c_str(), usage.c_str());
    for (const Positional& pos : positionals_) {
      std::fprintf(out, "  <%s>%*s%s (one of: %s)\n", pos.name.c_str(),
                   static_cast<int>(pos.name.size() < 24 ? 24 - pos.name.size() : 1), "",
                   pos.help.c_str(), pos.allowed.c_str());
    }
    for (const Option& opt : options_) {
      const std::string left = "--" + opt.name + (opt.is_flag ? "" : " <v>");
      std::string right = opt.help;
      if (!opt.allowed.empty()) right += " (one of: " + opt.allowed + ")";
      if (!opt.is_flag) right += " [default: " + opt.default_repr + "]";
      std::fprintf(out, "  %-26s%s\n", left.c_str(), right.c_str());
    }
    std::fprintf(out, "  %-26s%s\n", "-h, --help", "print this help and exit");
  }

 private:
  struct Option {
    std::string name;
    std::string help;
    std::string default_repr;
    std::string allowed;  ///< rendered vocabulary, enums only
    bool is_flag = false;
    std::function<bool(const std::string&)> set;
  };
  struct Positional {
    std::string name;
    std::string help;
    std::string allowed;
    std::function<bool(const std::string&)> set;
  };

  void add_unsigned(const std::string& name, const std::string& help, std::string default_repr,
                    u64 max, std::function<void(u64)> assign) {
    options_.push_back(Option{name, help, std::move(default_repr), "", false,
                              [max, assign = std::move(assign)](const std::string& text) {
                                if (text.empty() || text.front() == '-') return false;
                                errno = 0;
                                char* end = nullptr;
                                const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
                                if (errno != 0 || end != text.c_str() + text.size()) return false;
                                if (v > max) return false;
                                assign(v);
                                return true;
                              }});
  }

  Option* find(const std::string& name) {
    for (Option& opt : options_) {
      if (opt.name == name) return &opt;
    }
    return nullptr;
  }

  ParseStatus fail(std::string why) {
    error_ = std::move(why);
    return ParseStatus::kError;
  }

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  std::vector<Positional> positionals_;
  std::string error_;
};

/// Everything a node-shaped process needs, one field per flag. Callers
/// overwrite the zero-ish defaults that actually come from deeper configs
/// (watermarks, compaction lag, snapshot interval) before add_node_options
/// captures them for --help.
struct NodeConfig {
  u32 n = 5;
  u32 id = 0;
  u64 seed = 20200715;
  std::string host = "127.0.0.1";
  u16 base_port = 9500;
  std::string backend = "auto";  // event loop: auto|poll|epoll
  u64 high_watermark = 0;  ///< caller seeds from net::TransportConfig
  u64 low_watermark = 0;   ///< caller seeds from net::TransportConfig
  std::string compact = "off";  // off|retain|summary
  u32 compact_lag = 256;   ///< caller seeds from mp::CompactConfig
  std::string store_dir;     ///< empty = memory-only node
  std::string fsync = "interval";  // never|interval|always
  u32 fsync_interval = 64;
  u32 snapshot_interval = 1024;
  u64 segment_bytes = 4u << 20;
};

/// The node option vocabulary, declared once for every tool that hosts or
/// spawns nodes (amm_node today; cluster scripts pass these through).
inline void add_node_options(OptionSet& opts, NodeConfig* cfg) {
  opts.add_u32("n", &cfg->n, "cluster size (all nodes must share --n and --seed)");
  opts.add_u32("id", &cfg->id, "this node's id, 0 <= id < n");
  opts.add_u64("seed", &cfg->seed, "KeyRegistry master seed");
  opts.add_string("host", &cfg->host, "listen/dial host");
  opts.add_u16("base-port", &cfg->base_port, "node i listens on base-port+i");
  opts.add_enum("backend", &cfg->backend, {"auto", "poll", "epoll"}, "event-loop backend");
  opts.add_u64("high-watermark", &cfg->high_watermark,
               "per-peer outbound backpressure high watermark, bytes");
  opts.add_u64("low-watermark", &cfg->low_watermark,
               "per-peer outbound backpressure low watermark, bytes");
  opts.add_enum("compact", &cfg->compact, {"off", "retain", "summary"},
                "decided-prefix compaction mode (DESIGN.md §8)");
  opts.add_u32("compact-lag", &cfg->compact_lag,
               "records per author kept live behind the stability cut");
  opts.add_string("store-dir", &cfg->store_dir,
                  "durable store directory (empty = memory-only, DESIGN.md §10)");
  opts.add_enum("fsync", &cfg->fsync, {"never", "interval", "always"},
                "append-log fsync policy");
  opts.add_u32("fsync-interval", &cfg->fsync_interval,
               "appends between fdatasyncs with --fsync interval");
  opts.add_u32("snapshot-interval", &cfg->snapshot_interval,
               "admissions between automatic snapshots (0 = never)");
  opts.add_u64("segment-bytes", &cfg->segment_bytes, "roll log segments beyond this size");
}

}  // namespace amm::tools
