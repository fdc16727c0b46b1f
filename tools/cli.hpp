// tools/cli.hpp — the node option vocabulary shared by the runtime tools.
//
// Every binary parses argv with OptionSet (src/support/options.hpp); this
// header adds the one struct all node-shaped tools fill from it:
//
//   tools::NodeConfig cfg;
//   OptionSet opts("amm_node", "one append-memory node");
//   tools::add_node_options(opts, &cfg);
//   opts.parse_or_exit(argc, argv);
//
// The storage flags (--store-dir, --fsync, ...) feed
// storage::FileLogConfig and mp::AbdConfig in amm_node.
#pragma once

#include <string>

#include "support/options.hpp"
#include "support/types.hpp"

namespace amm::tools {

/// Everything a node-shaped process needs, one field per flag. Callers
/// overwrite the zero-ish defaults that actually come from deeper configs
/// (watermarks, compaction lag, snapshot interval) before add_node_options
/// captures them for --help.
struct NodeConfig {
  u32 n = 5;
  u32 id = 0;
  u64 seed = 20200715;
  std::string host = "127.0.0.1";
  u16 base_port = 9500;
  u64 high_watermark = 0;  ///< caller seeds from net::TransportConfig
  u64 low_watermark = 0;   ///< caller seeds from net::TransportConfig
  std::string compact = "off";  // off|retain|summary
  u32 compact_lag = 256;   ///< caller seeds from mp::CompactConfig
  std::string store_dir;     ///< empty = memory-only node
  std::string fsync = "interval";  // never|interval|always
  u32 fsync_interval = 64;
  u32 snapshot_interval = 1024;
  u64 segment_bytes = 4u << 20;
};

/// The node option vocabulary, declared once for every tool that hosts or
/// spawns nodes (amm_node today; cluster scripts pass these through).
inline void add_node_options(OptionSet& opts, NodeConfig* cfg) {
  opts.add_u32("n", &cfg->n, "cluster size (all nodes must share --n and --seed)");
  opts.add_u32("id", &cfg->id, "this node's id, 0 <= id < n");
  opts.add_u64("seed", &cfg->seed, "KeyRegistry master seed");
  opts.add_string("host", &cfg->host, "listen/dial host");
  opts.add_u16("base-port", &cfg->base_port, "node i listens on base-port+i");
  opts.add_u64("high-watermark", &cfg->high_watermark,
               "per-peer outbound backpressure high watermark, bytes");
  opts.add_u64("low-watermark", &cfg->low_watermark,
               "per-peer outbound backpressure low watermark, bytes");
  opts.add_enum("compact", &cfg->compact, {"off", "retain", "summary"},
                "decided-prefix compaction mode (DESIGN.md §8)");
  opts.add_u32("compact-lag", &cfg->compact_lag,
               "records per author kept live behind the stability cut");
  opts.add_string("store-dir", &cfg->store_dir,
                  "durable store directory (empty = memory-only, DESIGN.md §10)");
  opts.add_enum("fsync", &cfg->fsync, {"never", "interval", "always"},
                "append-log fsync policy");
  opts.add_u32("fsync-interval", &cfg->fsync_interval,
               "appends between fdatasyncs with --fsync interval");
  opts.add_u32("snapshot-interval", &cfg->snapshot_interval,
               "admissions between automatic snapshots (0 = never)");
  opts.add_u64("segment-bytes", &cfg->segment_bytes, "roll log segments beyond this size");
  opts.require([cfg] { return cfg->low_watermark <= cfg->high_watermark; },
               "need --low-watermark <= --high-watermark");
  opts.require([cfg] { return u64{cfg->base_port} + cfg->n <= 65536; },
               "need --base-port + --n - 1 <= 65535 (node ports must not wrap)");
}

}  // namespace amm::tools
