// The experiment binaries' common flags are checked before the worker pool
// is built. These tests call the checks directly, so no rejected value ever
// reaches a ThreadPool.
#include "exp/harness.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace amm::exp {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"exp"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(HarnessArgs, DefaultsAndInRangeValues) {
  EXPECT_EQ(trials_arg(make({}), 7), 7u);
  EXPECT_EQ(trials_arg(make({"--trials", "1"}), 7), 1u);
  EXPECT_EQ(threads_arg(make({})), 0u);  // hardware concurrency
  EXPECT_EQ(threads_arg(make({"--threads", "3"})), 3u);
  EXPECT_EQ(threads_arg(make({"--threads", "256"})), static_cast<unsigned>(kMaxThreads));
}

TEST(HarnessArgsDeathTest, OutOfRangeValuesExitTwo) {
  using testing::ExitedWithCode;
  EXPECT_EXIT((void)trials_arg(make({"--trials", "0"}), 7), ExitedWithCode(2), "--trials '0'");
  EXPECT_EXIT((void)trials_arg(make({"--trials", "-3"}), 7), ExitedWithCode(2), "--trials '-3'");
  EXPECT_EXIT((void)threads_arg(make({"--threads", "-1"})), ExitedWithCode(2), "--threads '-1'");
  EXPECT_EXIT((void)threads_arg(make({"--threads", "257"})), ExitedWithCode(2),
              "--threads '257'");
  EXPECT_EXIT((void)threads_arg(make({"--threads", "4294967295"})), ExitedWithCode(2),
              "--threads '4294967295'");
}

}  // namespace
}  // namespace amm::exp
