// Heap allocations per steady-state §5 trial, for the three trial kinds of
// perfbench's sim_chain_vs_dag (n = 64, t = 16, k = 201, λ = 1): chain_ba
// slotted against rush-extend, dag_ba against rate-and-withhold, and dag_ba
// deciding through the exact Algorithm 6 linearization. The per-thread
// trial workspaces leave a warm trial little beyond its result to
// allocate. A replacement operator new counts every allocation of this
// process. The sanitizers replace the allocator, so tests/CMakeLists.txt
// builds this binary only without AMM_SANITIZE.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"

namespace {

std::atomic<amm::u64> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace amm::proto {
namespace {

constexpr u64 kBudget = 10;
constexpr u64 kWarmupTrials = 60;
constexpr u64 kMeasuredTrials = 150;

Scenario bench_scenario() {
  Scenario s;
  s.n = 64;
  s.t = 16;
  return s;
}

/// The most allocations any one of kMeasuredTrials trials made, after
/// kWarmupTrials trials of the same kind warmed this thread's workspace.
template <typename Run>
u64 worst_steady_state(const Run& run) {
  for (u64 i = 0; i < kWarmupTrials; ++i) run(Rng::for_stream(1, i));
  u64 worst = 0;
  for (u64 i = 0; i < kMeasuredTrials; ++i) {
    const Rng rng = Rng::for_stream(2, i);
    const u64 before = g_allocations.load(std::memory_order_relaxed);
    run(rng);
    worst = std::max(worst, g_allocations.load(std::memory_order_relaxed) - before);
  }
  return worst;
}

TEST(TrialAllocations, ChainSlottedRushExtend) {
  ChainParams params;
  params.scenario = bench_scenario();
  params.k = 201;
  params.lambda = 1.0;
  params.adversary = ChainAdversary::kRushExtend;
  const u64 worst = worst_steady_state(
      [&](Rng rng) { EXPECT_TRUE(run_chain_slotted(params, rng).terminated); });
  EXPECT_LE(worst, kBudget);
}

DagParams dag_params(bool full_ordering) {
  DagParams params;
  params.scenario = bench_scenario();
  params.k = 201;
  params.lambda = 1.0;
  params.adversary = DagAdversary::kRateAndWithhold;
  params.full_ordering = full_ordering;
  return params;
}

TEST(TrialAllocations, DagRateAndWithhold) {
  const DagParams params = dag_params(false);
  const u64 worst = worst_steady_state(
      [&](Rng rng) { EXPECT_TRUE(run_dag_continuous(params, rng).outcome.terminated); });
  EXPECT_LE(worst, kBudget);
}

TEST(TrialAllocations, DagFullOrdering) {
  const DagParams params = dag_params(true);
  const u64 worst = worst_steady_state(
      [&](Rng rng) { EXPECT_TRUE(run_dag_continuous(params, rng).outcome.terminated); });
  EXPECT_LE(worst, kBudget);
}

}  // namespace
}  // namespace amm::proto
