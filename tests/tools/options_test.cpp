// tools/cli.hpp — the node option vocabulary, declared once for every
// node-shaped tool. The parser itself is tested in
// tests/support/options_test.cpp.
#include "tools/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace amm::tools {
namespace {

ParseStatus parse(OptionSet& opts, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return opts.parse(static_cast<int>(args.size()), args.data());
}

TEST(Options, NodeOptionsDeclareTheWholeVocabularyOnce) {
  NodeConfig cfg;
  OptionSet opts("amm_node", "test");
  add_node_options(opts, &cfg);
  EXPECT_EQ(parse(opts, {"--n", "7", "--id=3", "--compact", "summary",
                         "--store-dir", "/tmp/store0", "--fsync=always",
                         "--snapshot-interval", "256", "--segment-bytes", "1048576"}),
            ParseStatus::kOk);
  EXPECT_EQ(cfg.n, 7u);
  EXPECT_EQ(cfg.id, 3u);
  EXPECT_EQ(cfg.compact, "summary");
  EXPECT_EQ(cfg.store_dir, "/tmp/store0");
  EXPECT_EQ(cfg.fsync, "always");
  EXPECT_EQ(cfg.snapshot_interval, 256u);
  EXPECT_EQ(cfg.segment_bytes, 1048576u);
  // Untouched options keep their defaults.
  EXPECT_EQ(cfg.seed, 20200715u);
  EXPECT_EQ(cfg.base_port, 9500u);
  EXPECT_EQ(cfg.fsync_interval, 64u);

  // The old parsers ignored typos like this one; the shared one must not.
  EXPECT_EQ(parse(opts, {"--storedir", "/tmp/x"}), ParseStatus::kError);
}

TEST(Options, NodeOptionsRejectInvertedWatermarksAndWrappingPorts) {
  const auto status = [](std::vector<const char*> args) {
    NodeConfig cfg;
    OptionSet opts("amm_node", "test");
    add_node_options(opts, &cfg);
    return parse(opts, std::move(args));
  };
  // The transport requires low <= high; the flags must not reach it inverted.
  EXPECT_EQ(status({"--high-watermark", "10", "--low-watermark", "100"}), ParseStatus::kError);
  EXPECT_EQ(status({"--high-watermark", "100", "--low-watermark", "100"}), ParseStatus::kOk);
  // Node i listens on base-port + i: ports 65533..65537 would wrap to 0 and 1.
  EXPECT_EQ(status({"--base-port", "65533", "--n", "5"}), ParseStatus::kError);
  EXPECT_EQ(status({"--base-port", "65531", "--n", "5"}), ParseStatus::kOk);
}

TEST(Options, SegmentBytesIsBounded) {
  const auto status = [](const char* value) {
    NodeConfig cfg;
    OptionSet opts("amm_node", "test");
    add_node_options(opts, &cfg);
    return parse(opts, {"--segment-bytes", value});
  };
  // 0 would give every record a file of its own; each segment also
  // reserves its size on disk, so the top is capped too.
  EXPECT_EQ(status("0"), ParseStatus::kError);
  EXPECT_EQ(status("65535"), ParseStatus::kError);
  EXPECT_EQ(status("65536"), ParseStatus::kOk);
  EXPECT_EQ(status("1073741824"), ParseStatus::kOk);
  EXPECT_EQ(status("1073741825"), ParseStatus::kError);
}

TEST(OptionsDeathTest, SegmentBytesOutsideItsBoundsExitsTwo) {
  for (const char* value : {"0", "1073741825"}) {
    NodeConfig cfg;
    OptionSet opts("amm_node", "test");
    add_node_options(opts, &cfg);
    const char* argv[] = {"amm_node", "--segment-bytes", value};
    EXPECT_EXIT(opts.parse_or_exit(3, argv), ::testing::ExitedWithCode(2), "segment-bytes")
        << value;
  }
}

}  // namespace
}  // namespace amm::tools
