#include "support/cli.hpp"

#include <gtest/gtest.h>

namespace amm {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, SpaceSeparatedValue) {
  const auto args = make({"--trials", "500"});
  EXPECT_EQ(args.get_int("trials", 0), 500);
}

TEST(CliArgs, EqualsSeparatedValue) {
  const auto args = make({"--lambda=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0.0), 0.25);
}

TEST(CliArgs, BareFlag) {
  const auto args = make({"--csv"});
  EXPECT_TRUE(args.has_flag("csv"));
  EXPECT_FALSE(args.has_flag("json"));
}

TEST(CliArgs, DefaultsWhenMissing) {
  const auto args = make({});
  EXPECT_EQ(args.get_int("trials", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_EQ(args.get_string("mode", "fast"), "fast");
}

TEST(CliArgs, StringValue) {
  const auto args = make({"--mode", "slotted"});
  EXPECT_EQ(args.get_string("mode", ""), "slotted");
}

TEST(CliArgs, FlagFollowedByFlag) {
  const auto args = make({"--csv", "--trials", "7"});
  EXPECT_TRUE(args.has_flag("csv"));
  EXPECT_EQ(args.get_int("trials", 0), 7);
}

TEST(CliArgs, NegativeNumberAsValue) {
  // "-3" does not start with "--", so it binds as the value.
  const auto args = make({"--offset", "-3"});
  EXPECT_EQ(args.get_int("offset", 0), -3);
}

TEST(CliArgs, ExponentAsDoubleValue) {
  const auto args = make({"--lambda", "-1.5e2"});
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0.0), -150.0);
}

TEST(CliArgsDeathTest, MalformedOrMissingNumberExitsTwo) {
  using testing::ExitedWithCode;
  for (const char* bad : {"3x", "abc", " 3", "+3", "1e3", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT((void)make({"--trials", bad}).get_int("trials", 1), ExitedWithCode(2),
                "--trials '.*': expected an integer");
  }
  EXPECT_EXIT((void)make({"--trials"}).get_int("trials", 1), ExitedWithCode(2), "--trials ''");
  EXPECT_EXIT((void)make({"--trials="}).get_int("trials", 1), ExitedWithCode(2), "--trials ''");
  EXPECT_EXIT((void)make({"--lambda=0.5x"}).get_double("lambda", 0.5), ExitedWithCode(2),
              "--lambda '0.5x': expected a number");
}

}  // namespace
}  // namespace amm
