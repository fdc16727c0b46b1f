// support/options.hpp — the one argv parser every binary uses.
//
// The properties it buys: one declaration per option, `--name value` and
// `--name=value` both accepted, one number rule (the whole token, base 10),
// [lo, hi] bounds, enum and positional vocabularies, cross-flag checks, and
// unknown flags and stray arguments *rejected*, not silently ignored.
#include "support/options.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace amm {
namespace {

ParseStatus parse(OptionSet& opts, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return opts.parse(static_cast<int>(args.size()), args.data());
}

TEST(Options, TypedValuesParseInBothSpellings) {
  bool flag = false;
  std::string name = "default";
  std::string mode = "off";
  u16 port = 9500;
  u32 count = 1;
  u64 big = 0;
  i64 value = 0;
  double rate = 0.0;
  OptionSet opts("prog", "test");
  opts.add_flag("flag", &flag, "a flag");
  opts.add_string("name", &name, "a string");
  opts.add_enum("mode", &mode, {"off", "retain", "summary"}, "an enum");
  opts.add_u16("port", &port, "a u16");
  opts.add_u32("count", &count, "a u32");
  opts.add_u64("big", &big, "a u64");
  opts.add_i64("value", &value, "an i64");
  opts.add_double("rate", &rate, "a double");

  EXPECT_EQ(parse(opts, {"--flag", "--name", "alice", "--mode=summary", "--port=65535",
                         "--count", "010", "--big=4294967296", "--value", "-42",
                         "--rate=0.25"}),
            ParseStatus::kOk);
  EXPECT_TRUE(flag);
  EXPECT_EQ(name, "alice");
  EXPECT_EQ(mode, "summary");
  EXPECT_EQ(port, 65535u);
  EXPECT_EQ(count, 10u);  // base 10: a leading zero is not octal
  EXPECT_EQ(big, 4294967296ull);
  EXPECT_EQ(value, -42);
  EXPECT_DOUBLE_EQ(rate, 0.25);

  // No hex either: the number rule is base 10 only.
  EXPECT_EQ(parse(opts, {"--count", "0x10"}), ParseStatus::kError);
}

TEST(Options, UnknownFlagRejected) {
  u32 n = 5;
  OptionSet opts("prog", "test");
  opts.add_u32("n", &n, "cluster size");
  EXPECT_EQ(parse(opts, {"--n", "3", "--bogus", "7"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("unknown option --bogus"), std::string::npos) << opts.error();
}

TEST(Options, MissingValueRejected) {
  std::string dir;
  OptionSet opts("prog", "test");
  opts.add_string("store-dir", &dir, "store directory");
  EXPECT_EQ(parse(opts, {"--store-dir"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("needs a value"), std::string::npos) << opts.error();
}

TEST(Options, EnumVocabularyEnforced) {
  std::string fsync = "interval";
  OptionSet opts("prog", "test");
  opts.add_enum("fsync", &fsync, {"never", "interval", "always"}, "fsync policy");
  EXPECT_EQ(parse(opts, {"--fsync", "sometimes"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("one of: never|interval|always"), std::string::npos)
      << opts.error();
  EXPECT_EQ(fsync, "interval");  // failed parse leaves the default alone
}

TEST(Options, NumericRangeAndFormatEnforced) {
  u16 port = 0;
  u32 n = 0;
  u64 seed = 0;
  u32 k = 3;
  double lambda = 0.5;
  OptionSet opts("prog", "test");
  opts.add_u16("port", &port, "a u16");
  opts.add_u32("n", &n, "a u32");
  opts.add_u64("seed", &seed, "a u64");
  opts.add_u32("k", &k, "a bounded u32", {2, 8});
  opts.add_double("lambda", &lambda, "a double");
  EXPECT_EQ(parse(opts, {"--port", "65536"}), ParseStatus::kError);  // u16 overflow
  EXPECT_EQ(parse(opts, {"--port", "abc"}), ParseStatus::kError);
  EXPECT_EQ(parse(opts, {"--port", "12x"}), ParseStatus::kError);  // trailing junk
  EXPECT_EQ(parse(opts, {"--n", "-1"}), ParseStatus::kError);      // unsigned, no wrap
  EXPECT_EQ(parse(opts, {"--n", ""}), ParseStatus::kError);
  // Only the whole token, in base 10, counts.
  for (const char* bad : {"3x", "abc", " 3", "+3", "1e3", "0x10", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(parse(opts, {"--n", bad}), ParseStatus::kError);
    EXPECT_EQ(parse(opts, {"--seed", bad}), ParseStatus::kError);
  }
  EXPECT_EQ(parse(opts, {"--seed", " -1"}), ParseStatus::kError);  // no wrap past a space
  EXPECT_EQ(seed, 0u);
  EXPECT_EQ(parse(opts, {"--lambda=0.5x"}), ParseStatus::kError);
  EXPECT_EQ(parse(opts, {"--lambda", " 0.5"}), ParseStatus::kError);
  EXPECT_DOUBLE_EQ(lambda, 0.5);

  // Bounds are inclusive and named in the error.
  EXPECT_EQ(parse(opts, {"--k", "1"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("invalid value '1' for --k (2..8)"), std::string::npos)
      << opts.error();
  EXPECT_EQ(parse(opts, {"--k", "9"}), ParseStatus::kError);
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(parse(opts, {"--k", "2"}), ParseStatus::kOk);
  EXPECT_EQ(k, 2u);
  EXPECT_EQ(parse(opts, {"--k", "8"}), ParseStatus::kOk);
  EXPECT_EQ(k, 8u);
}

TEST(Options, FlagTakesNoValue) {
  bool flag = false;
  OptionSet opts("prog", "test");
  opts.add_flag("flag", &flag, "a flag");
  EXPECT_EQ(parse(opts, {"--flag=1"}), ParseStatus::kError);
}

TEST(Options, HelpShortCircuitsAndListsEveryOption) {
  u32 n = 5;
  u64 trials = 40;
  std::string mode = "off";
  OptionSet opts("prog", "summary line");
  opts.add_u32("n", &n, "cluster size");
  opts.add_u64("trials", &trials, "trials", {1});
  opts.add_enum("mode", &mode, {"off", "on"}, "a mode");
  opts.require([] { return false; }, "never reached by --help");
  EXPECT_EQ(parse(opts, {"-h"}), ParseStatus::kHelp);
  EXPECT_EQ(parse(opts, {"--n", "3", "--help"}), ParseStatus::kHelp);

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  opts.print_help(out);
  std::rewind(out);
  char buf[2048] = {};
  const usize got = std::fread(buf, 1, sizeof buf - 1, out);
  std::fclose(out);
  const std::string help(buf, got);
  EXPECT_NE(help.find("--n <v>"), std::string::npos) << help;
  EXPECT_NE(help.find("[default: 5]"), std::string::npos) << help;  // captured default
  EXPECT_NE(help.find("trials (>= 1) [default: 40]"), std::string::npos) << help;
  EXPECT_NE(help.find("one of: off|on"), std::string::npos) << help;
  EXPECT_NE(help.find("-h, --help"), std::string::npos) << help;
}

TEST(Options, PositionalVocabularyAndOrder) {
  std::string command;
  std::string dir;
  OptionSet opts("prog", "test");
  opts.add_positional("command", &command, {"dump", "verify", "truncate"}, "what to do");
  opts.add_string("dir", &dir, "store dir");
  EXPECT_EQ(parse(opts, {"verify", "--dir", "/tmp/x"}), ParseStatus::kOk);
  EXPECT_EQ(command, "verify");
  EXPECT_EQ(dir, "/tmp/x");

  EXPECT_EQ(parse(opts, {"explode"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("invalid command"), std::string::npos) << opts.error();
  EXPECT_EQ(parse(opts, {}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("missing command"), std::string::npos) << opts.error();
}

TEST(Options, UnexpectedPositionalRejected) {
  u32 n = 0;
  OptionSet opts("prog", "test");
  opts.add_u32("n", &n, "a u32");
  EXPECT_EQ(parse(opts, {"stray"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("unexpected argument 'stray'"), std::string::npos) << opts.error();
}

TEST(Options, RequireChecksTheParsedValues) {
  u32 n = 12;
  u32 t = 3;
  OptionSet opts("prog", "test");
  opts.add_u32("n", &n, "nodes");
  opts.add_u32("t", &t, "faulty nodes");
  opts.require([&] { return t < n; }, "need --t < --n");
  EXPECT_EQ(parse(opts, {"--t", "11"}), ParseStatus::kOk);
  EXPECT_EQ(parse(opts, {"--n", "12", "--t", "20"}), ParseStatus::kError);
  EXPECT_EQ(opts.error(), "need --t < --n");
  // Checked after every argument, so the order of the flags does not matter.
  EXPECT_EQ(parse(opts, {"--t", "20", "--n", "21"}), ParseStatus::kOk);
}

// The command-line argument cases, one spelling each.
TEST(CliArgs, SpaceSeparatedValue) {
  u64 trials = 0;
  OptionSet opts("prog", "test");
  opts.add_u64("trials", &trials, "trials");
  EXPECT_EQ(parse(opts, {"--trials", "500"}), ParseStatus::kOk);
  EXPECT_EQ(trials, 500u);
}

TEST(CliArgs, EqualsSeparatedValue) {
  double lambda = 0.0;
  OptionSet opts("prog", "test");
  opts.add_double("lambda", &lambda, "rate");
  EXPECT_EQ(parse(opts, {"--lambda=0.25"}), ParseStatus::kOk);
  EXPECT_DOUBLE_EQ(lambda, 0.25);
}

TEST(CliArgs, BareFlag) {
  bool csv = false;
  bool json = false;
  OptionSet opts("prog", "test");
  opts.add_flag("csv", &csv, "csv");
  opts.add_flag("json", &json, "json");
  EXPECT_EQ(parse(opts, {"--csv"}), ParseStatus::kOk);
  EXPECT_TRUE(csv);
  EXPECT_FALSE(json);
}

TEST(CliArgs, DefaultsWhenMissing) {
  u64 trials = 42;
  double x = 1.5;
  std::string mode = "fast";
  OptionSet opts("prog", "test");
  opts.add_u64("trials", &trials, "trials");
  opts.add_double("x", &x, "x");
  opts.add_string("mode", &mode, "mode");
  EXPECT_EQ(parse(opts, {}), ParseStatus::kOk);
  EXPECT_EQ(trials, 42u);
  EXPECT_DOUBLE_EQ(x, 1.5);
  EXPECT_EQ(mode, "fast");
}

TEST(CliArgs, StringValue) {
  std::string mode;
  OptionSet opts("prog", "test");
  opts.add_string("mode", &mode, "mode");
  EXPECT_EQ(parse(opts, {"--mode", "slotted"}), ParseStatus::kOk);
  EXPECT_EQ(mode, "slotted");
}

TEST(CliArgs, FlagFollowedByFlag) {
  bool csv = false;
  u64 trials = 0;
  OptionSet opts("prog", "test");
  opts.add_flag("csv", &csv, "csv");
  opts.add_u64("trials", &trials, "trials");
  EXPECT_EQ(parse(opts, {"--csv", "--trials", "7"}), ParseStatus::kOk);
  EXPECT_TRUE(csv);
  EXPECT_EQ(trials, 7u);
}

TEST(CliArgs, NegativeNumberAsValue) {
  // "-3" does not start with "--", so it binds as the value.
  i64 offset = 0;
  OptionSet opts("prog", "test");
  opts.add_i64("offset", &offset, "offset");
  EXPECT_EQ(parse(opts, {"--offset", "-3"}), ParseStatus::kOk);
  EXPECT_EQ(offset, -3);
}

TEST(CliArgs, ExponentAsDoubleValue) {
  double lambda = 0.0;
  OptionSet opts("prog", "test");
  opts.add_double("lambda", &lambda, "rate");
  EXPECT_EQ(parse(opts, {"--lambda", "-1.5e2"}), ParseStatus::kOk);
  EXPECT_DOUBLE_EQ(lambda, -150.0);
}

TEST(CliArgsDeathTest, MalformedOrMissingNumberExitsTwo) {
  using testing::ExitedWithCode;
  const auto run = [](std::vector<const char*> args) {
    u64 trials = 1;
    double lambda = 0.5;
    OptionSet opts("prog", "test");
    opts.add_u64("trials", &trials, "trials");
    opts.add_double("lambda", &lambda, "rate");
    args.insert(args.begin(), "prog");
    opts.parse_or_exit(static_cast<int>(args.size()), args.data());
    std::exit(0);
  };
  for (const char* bad : {"3x", "abc", " 3", "+3", "1e3", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT(run({"--trials", bad}), ExitedWithCode(2),
                "^prog: invalid value '.*' for --trials");
  }
  EXPECT_EXIT(run({"--trials"}), ExitedWithCode(2), "^prog: --trials needs a value");
  EXPECT_EXIT(run({"--trials="}), ExitedWithCode(2), "^prog: invalid value '' for --trials");
  EXPECT_EXIT(run({"--lambda=0.5x"}), ExitedWithCode(2),
              "^prog: invalid value '0.5x' for --lambda");
}

TEST(OptionsDeathTest, ParseOrExitExitsZeroOnHelpAndTwoOnError) {
  using testing::ExitedWithCode;
  const auto run = [](std::vector<const char*> args) {
    u32 n = 3;
    OptionSet opts("prog", "test");
    opts.add_u32("n", &n, "processes", {2, 8});
    args.insert(args.begin(), "prog");
    opts.parse_or_exit(static_cast<int>(args.size()), args.data());
    std::exit(n == 3 ? 7 : 8);  // parse_or_exit returned: kOk
  };
  EXPECT_EXIT(run({}), ExitedWithCode(7), "");
  EXPECT_EXIT(run({"--n", "4"}), ExitedWithCode(8), "");
  EXPECT_EXIT(run({"--help"}), ExitedWithCode(0), "");
  EXPECT_EXIT(run({"--n", "1"}), ExitedWithCode(2), "^prog: invalid value '1' for --n");
  EXPECT_EXIT(run({"--trails", "2"}), ExitedWithCode(2), "^prog: unknown option --trails");
}

}  // namespace
}  // namespace amm
