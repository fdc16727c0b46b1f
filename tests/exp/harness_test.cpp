// The experiment binaries' common flags are declared on one OptionSet and
// checked before the worker pool is built. These tests parse with the
// harness's own declarations directly, so no rejected value ever reaches a
// ThreadPool.
#include "exp/harness.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace amm::exp {
namespace {

/// The common flags after parsing `args`, with 7 as the default trials;
/// exits like an experiment binary on --help or a rejected argv.
CommonFlags parse(std::initializer_list<const char*> args) {
  CommonFlags flags;
  flags.trials = 7;
  OptionSet opts("exp", "test");
  add_common_options(opts, &flags);
  std::vector<const char*> argv{"exp"};
  argv.insert(argv.end(), args.begin(), args.end());
  opts.parse_or_exit(static_cast<int>(argv.size()), argv.data());
  return flags;
}

TEST(HarnessArgs, DefaultsAndInRangeValues) {
  EXPECT_EQ(parse({}).trials, 7u);
  EXPECT_EQ(parse({"--trials", "1"}).trials, 1u);
  EXPECT_EQ(parse({}).threads, 0u);  // hardware concurrency
  EXPECT_EQ(parse({"--threads", "3"}).threads, 3u);
  EXPECT_EQ(parse({"--threads", "256"}).threads, kMaxThreads);
  EXPECT_EQ(parse({}).seed, 20200715u);
  EXPECT_EQ(parse({"--seed", "18446744073709551615"}).seed, ~u64{0});
  EXPECT_TRUE(parse({"--csv", "--json", "out.json"}).csv);
  EXPECT_EQ(parse({"--json=out.json"}).json_path, "out.json");
}

TEST(HarnessArgsDeathTest, OutOfRangeValuesExitTwo) {
  using testing::ExitedWithCode;
  EXPECT_EXIT((void)parse({"--trials", "0"}), ExitedWithCode(2),
              "^exp: invalid value '0' for --trials");
  EXPECT_EXIT((void)parse({"--trials", "-3"}), ExitedWithCode(2), "--trials");
  EXPECT_EXIT((void)parse({"--threads", "-1"}), ExitedWithCode(2), "--threads");
  EXPECT_EXIT((void)parse({"--threads", "257"}), ExitedWithCode(2), "--threads \\(0\\.\\.256\\)");
  EXPECT_EXIT((void)parse({"--threads", "4294967295"}), ExitedWithCode(2), "--threads");
  // A negative seed no longer wraps to 2^64 - |s|.
  EXPECT_EXIT((void)parse({"--seed", "-1"}), ExitedWithCode(2), "--seed");
  EXPECT_EXIT((void)parse({"--trails", "2"}), ExitedWithCode(2), "unknown option --trails");
  EXPECT_EXIT((void)parse({"stray"}), ExitedWithCode(2), "unexpected argument 'stray'");
}

}  // namespace
}  // namespace amm::exp
