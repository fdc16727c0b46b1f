// The Monte-Carlo harness must return the same bytes at every thread count
// and in every completion order: trial i's result lands in slot i, and every
// statistic is a fold over the slots in trial order — the property
// everything in EXPERIMENTS.md rests on.
#include "exp/montecarlo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace amm::exp {
namespace {

TEST(EstimateRate, CountsExactly) {
  ThreadPool pool(2);
  const auto est = estimate_rate(pool, 1, 1000, [](usize i, Rng&) { return i % 4 == 0; });
  EXPECT_EQ(est.trials(), 1000u);
  EXPECT_EQ(est.successes(), 250u);
}

TEST(EstimateRate, SeedReproducibleAcrossThreadCounts) {
  auto run = [](unsigned threads) {
    ThreadPool pool(threads);
    return estimate_rate(pool, 42, 2000, [](usize, Rng& rng) { return rng.bernoulli(0.3); });
  };
  const auto a = run(1);
  const auto b = run(4);
  EXPECT_EQ(a.successes(), b.successes());
  EXPECT_EQ(a.trials(), b.trials());
}

TEST(EstimateRate, DifferentSeedsDiffer) {
  ThreadPool pool(2);
  const auto a =
      estimate_rate(pool, 1, 2000, [](usize, Rng& rng) { return rng.bernoulli(0.5); });
  const auto b =
      estimate_rate(pool, 2, 2000, [](usize, Rng& rng) { return rng.bernoulli(0.5); });
  EXPECT_NE(a.successes(), b.successes());
}

TEST(EstimateRate, RateConvergesToTruth) {
  ThreadPool pool(4);
  const auto est =
      estimate_rate(pool, 3, 20'000, [](usize, Rng& rng) { return rng.bernoulli(0.7); });
  EXPECT_NEAR(est.rate(), 0.7, 0.02);
  const auto [lo, hi] = est.wilson95();
  EXPECT_LT(lo, 0.7);
  EXPECT_GT(hi, 0.7);
}

// Dynamic scheduling: every trial index runs exactly once even when the
// workers race on the shared counter.
TEST(EstimateRate, EveryIndexRunsExactlyOnce) {
  constexpr usize kTrials = 4096;
  std::vector<std::atomic<u32>> hits(kTrials);
  ThreadPool pool(4);
  const auto est = estimate_rate(pool, 7, kTrials, [&](usize i, Rng&) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  EXPECT_EQ(est.trials(), kTrials);
  for (usize i = 0; i < kTrials; ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "trial " << i;
  }
}

// Heavily skewed trial durations (one pathological straggler plus a block
// of slow trials at the front — the shape a withholding adversary produces)
// must not change counts or reproducibility. Under the old static chunking
// the slow prefix landed in one chunk; dynamic scheduling spreads it.
TEST(EstimateRate, SkewedTrialDurationsStayExact) {
  auto run = [](unsigned threads) {
    ThreadPool pool(threads);
    return estimate_rate(pool, 11, 64, [](usize i, Rng& rng) {
      if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (i < 8) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return rng.bernoulli(0.5);
    });
  };
  const auto a = run(1);
  const auto b = run(4);
  EXPECT_EQ(a.trials(), 64u);
  EXPECT_EQ(a.successes(), b.successes());
}

/// The mean of a trial-indexed result vector, folded in index order — the
/// shape of every side statistic in bench/exp_*.
double fold_mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

// Real-valued results and their fold are bit-identical at 1, 2, 4 and 8
// threads. A merge of per-worker partials (or a shared sum taken in
// completion order) rounds differently and fails EXPECT_EQ here.
TEST(RunTrials, FoldIsBitIdenticalAcrossThreadCounts) {
  auto run = [](unsigned threads) {
    ThreadPool pool(threads);
    return run_trials(pool, 9, 5000, [](usize, Rng& rng) { return rng.normal() * 2.0 + 1.0; });
  };
  const std::vector<double> reference = run(1);
  ASSERT_EQ(reference.size(), 5000u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const std::vector<double> results = run(threads);
    EXPECT_EQ(results, reference) << threads << " threads";
    EXPECT_EQ(fold_mean(results), fold_mean(reference)) << threads << " threads";
  }
}

// Skewed trial durations (slow trials scattered through the index range)
// reorder completion, never the slots: each slot holds its own trial's
// result and the fold reads them in trial order.
TEST(RunTrials, SkewedTrialDurationsKeepSlotOrder) {
  struct Sample {
    usize index = 0;
    double value = 0.0;
    bool operator==(const Sample&) const = default;
  };
  auto run = [](unsigned threads) {
    ThreadPool pool(threads);
    return run_trials(pool, 13, 64, [](usize i, Rng& rng) {
      if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return Sample{i, rng.normal()};
    });
  };
  const std::vector<Sample> reference = run(1);
  for (usize i = 0; i < reference.size(); ++i) EXPECT_EQ(reference[i].index, i);
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run(threads), reference) << threads << " threads";
  }
}

TEST(RunTrials, ZeroTrials) {
  ThreadPool pool(2);
  const auto results = run_trials(pool, 1, 0, [](usize, Rng&) { return 1.0; });
  EXPECT_TRUE(results.empty());
}

TEST(RunTrials, SingleTrial) {
  ThreadPool pool(2);
  const auto results = run_trials(pool, 1, 1, [](usize, Rng&) { return 5.0; });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 5.0);
}

}  // namespace
}  // namespace amm::exp
