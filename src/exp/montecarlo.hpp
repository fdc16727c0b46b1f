// Parallel Monte-Carlo trial runner for the experiment harness.
//
// Trials are pure functions of (trial index, private RNG) — no shared
// mutable state (Core Guidelines CP.2/CP.3). Trial i's RNG derives from
// (master seed, i) alone and its result lands in slot i, so every
// statistic is a fold over the slots in trial order: the same arithmetic
// at any thread count and in any completion order, which makes each table
// a pure function of the master seed.
#pragma once

#include <functional>
#include <type_traits>
#include <vector>

#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace amm::exp {

/// Runs `trials` independent trials across the pool (parallel_for's dynamic
/// scheduling) and returns trial i's result in slot i. Each slot is written
/// by exactly one worker and read only after parallel_for's wait_idle().
/// A slot must be its own object: std::vector<bool> packs slots into shared
/// words that concurrent writers would race on, so `bool` is rejected.
template <typename Trial>
auto run_trials(ThreadPool& pool, u64 master_seed, usize trials, const Trial& trial) {
  using Result = std::invoke_result_t<const Trial&, usize, Rng&>;
  static_assert(!std::is_same_v<Result, bool>,
                "std::vector<bool> slots share words; return a byte-sized type");
  std::vector<Result> results(trials);
  parallel_for(pool, trials, [&](usize i) {
    Rng rng = Rng::for_stream(master_seed, i);
    results[i] = trial(i, rng);
  });
  return results;
}

/// Estimates Pr[trial succeeds] over `trials` independent runs.
inline BernoulliEstimate estimate_rate(ThreadPool& pool, u64 master_seed, usize trials,
                                       const std::function<bool(usize, Rng&)>& trial) {
  const std::vector<u8> passed =
      run_trials(pool, master_seed, trials,
                 [&trial](usize i, Rng& rng) -> u8 { return trial(i, rng) ? 1 : 0; });
  BernoulliEstimate est;
  for (const u8 p : passed) est.add(p != 0);
  return est;
}

}  // namespace amm::exp
