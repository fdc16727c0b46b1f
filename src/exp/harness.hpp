// Shared experiment-binary plumbing: the common flags, banner printing and
// table emission, so every exp_* target behaves identically.
//
// Common flags:
//   --trials N    Monte-Carlo trials per configuration (default per-exp), N >= 1
//   --seed S      master seed (default 20200715 — the SPAA'20 date)
//   --threads T   worker threads (default 0: hardware), at most kMaxThreads
//   --csv         emit CSV instead of the ASCII table
//   --json FILE   additionally write every emitted table to FILE as JSON
//                 (machine-readable summary; aggregated by collect_bench.py)
//
// A binary declares its own flags through the constructor's `declare`
// argument, so one OptionSet parses argv once, before the worker pool is
// built: --help lists every flag with its default and exits 0, and an
// unknown flag, a stray argument, a malformed or out-of-range value or a
// failed cross-flag check prints "<prog>: <reason>" and exits 2.
#pragma once

#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "support/options.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace amm::exp {

/// Upper bound on --threads: above any core count the experiments run on,
/// and low enough that a typo never asks the OS for thousands of threads.
inline constexpr u32 kMaxThreads = 256;

/// The common flags, one field per flag. The values in place when
/// add_common_options runs are the defaults --help shows.
struct CommonFlags {
  usize trials = 1;
  u64 seed = 20200715;
  u32 threads = 0;
  bool csv = false;
  std::string json_path;
};

inline void add_common_options(OptionSet& opts, CommonFlags* flags) {
  opts.add_u64("trials", &flags->trials, "Monte-Carlo trials per configuration", {1});
  opts.add_u64("seed", &flags->seed, "master seed");
  opts.add_u32("threads", &flags->threads, "worker threads, 0 = hardware", {0, kMaxThreads});
  opts.add_flag("csv", &flags->csv, "emit CSV instead of the ASCII table");
  opts.add_string("json", &flags->json_path,
                  "additionally write every emitted table to this JSON file");
}

/// The common flags, parsed before the pool is built (a base class
/// initializes before the members), plus the pool and table emission.
struct Harness : CommonFlags {
  /// Declares a binary's own flags on the OptionSet that parses argv.
  using Declare = std::function<void(OptionSet&)>;

  Harness(int argc, const char* const* argv, const std::string& title, usize default_trials,
          const Declare& declare = {})
      : CommonFlags(parse(argc, argv, title, default_trials, declare)),
        pool(threads),
        title_(title) {
    if (!csv) {
      std::cout << "== " << title << " ==\n"
                << "trials/config=" << trials << " seed=" << seed << " threads=" << pool.size()
                << "\n\n";
    }
  }

  ~Harness() { write_json(); }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void emit(const Table& table, const std::string& caption = "") {
    if (csv) {
      table.print_csv(std::cout);
    } else {
      if (!caption.empty()) std::cout << caption << "\n";
      table.print(std::cout);
      std::cout << "\n";
    }
    if (!json_path.empty()) collected_.emplace_back(caption, table);
  }

  ThreadPool pool;

 private:
  /// Parses argv once, with the binary's own flags; --help and a rejected
  /// argv exit inside parse_or_exit.
  static CommonFlags parse(int argc, const char* const* argv, const std::string& title,
                           usize default_trials, const Declare& declare) {
    CommonFlags flags;
    flags.trials = default_trials;
    const std::string path = argc > 0 ? argv[0] : "exp";
    OptionSet opts(path.substr(path.find_last_of('/') + 1), title);
    add_common_options(opts, &flags);
    if (declare) declare(opts);
    opts.parse_or_exit(argc, argv);
    return flags;
  }

  /// One JSON document per run: run parameters plus every emitted table,
  /// in emission order. Written at destruction so a binary that emits
  /// several tables still produces a single well-formed file.
  void write_json() const {
    if (json_path.empty()) return;
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "warning: cannot write --json file " << json_path << "\n";
      return;
    }
    out << "{\"title\":\"" << json_escape(title_) << "\",\"seed\":" << seed
        << ",\"trials\":" << trials << ",\"tables\":[";
    for (usize i = 0; i < collected_.size(); ++i) {
      if (i > 0) out << ',';
      out << "{\"caption\":\"" << json_escape(collected_[i].first) << "\",\"table\":";
      collected_[i].second.print_json(out);
      out << '}';
    }
    out << "]}\n";
  }

  std::string title_;
  std::vector<std::pair<std::string, Table>> collected_;
};

}  // namespace amm::exp
