// Shared experiment-binary plumbing: canonical CLI flags, banner printing
// and table emission, so every exp_* target behaves identically.
//
// Common flags:
//   --trials N    Monte-Carlo trials per configuration (default per-exp)
//   --seed S      master seed (default 20200715 — the SPAA'20 date)
//   --threads T   worker threads (default 0: hardware), at most kMaxThreads
//   --csv         emit CSV instead of the ASCII table
//   --json FILE   additionally write every emitted table to FILE as JSON
//                 (machine-readable summary; aggregated by collect_bench.py)
//
// A malformed or out-of-range value (--trials 0, --seed abc, --threads -1)
// prints the flag and the value and exits 2 before the worker pool exists.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace amm::exp {

/// Upper bound on --threads: above any core count the experiments run on,
/// and low enough that a typo never asks the OS for thousands of threads.
inline constexpr i64 kMaxThreads = 256;

/// --trials: at least 1 (default `fallback`); exits 2 otherwise.
inline usize trials_arg(const CliArgs& args, usize fallback) {
  const i64 trials = args.get_int("trials", static_cast<i64>(fallback));
  if (trials < 1) args.reject("trials", "need at least 1 trial");
  return static_cast<usize>(trials);
}

/// --threads: 0 (hardware concurrency) to kMaxThreads; exits 2 otherwise.
inline unsigned threads_arg(const CliArgs& args) {
  const i64 threads = args.get_int("threads", 0);
  if (threads < 0 || threads > kMaxThreads) {
    args.reject("threads", "need 0 (hardware) to " + std::to_string(kMaxThreads));
  }
  return static_cast<unsigned>(threads);
}

struct Harness {
  // Members initialize in declaration order, so every flag is checked
  // before the pool is built.
  Harness(int argc, const char* const* argv, const std::string& title, usize default_trials)
      : args(argc, argv),
        trials(trials_arg(args, default_trials)),
        seed(static_cast<u64>(args.get_int("seed", 20200715))),
        pool(threads_arg(args)),
        csv(args.has_flag("csv")),
        json_path(args.get_string("json", "")),
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

  CliArgs args;
  usize trials;
  u64 seed;
  ThreadPool pool;
  bool csv;
  std::string json_path;

 private:
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
