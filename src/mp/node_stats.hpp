// Unified node telemetry: every counter a hosted node exports — transport,
// protocol, compaction and (since the durable log) storage — in one struct
// with one serialization order.
//
// kNodeStatsFields is the single source of truth: the control-plane codec
// (net/codec.cpp), amm_ctl's `stats` printout, amm_swarm's per-node table
// and cluster_test.py's `name=value` parsing all walk this table, so adding
// a counter is one line here and nowhere else. Field names are the stable
// script-facing identifiers (cluster_test.py greps `name=value`); renaming
// one is a wire-format change for the tooling.
#pragma once

#include <iterator>

#include "support/types.hpp"

namespace amm::mp {

/// All counters of one node process. Serialized as one u64 per field in
/// kNodeStatsFields order (little-endian, by net/codec).
struct NodeStats {
  u64 messages_sent = 0;   ///< protocol messages the transport sent
  u64 bytes_sent = 0;      ///< payload bytes the transport sent
  u64 view_size = 0;       ///< records in the local view (live suffix)
  u64 appends_issued = 0;  ///< append operations this node started
  u64 reconnects = 0;      ///< outbound links re-dialed after a drop
  u64 auth_rejects = 0;    ///< handshakes refused (bad hello signature)
  u64 sig_rejects = 0;     ///< records/acks/checkpoints the node refused (Lemma 4.1)
  u64 reads_served_full = 0;   ///< read requests answered with a full view
  u64 reads_served_delta = 0;  ///< read requests answered above a frontier
  u64 read_records_sent = 0;   ///< records shipped in this node's read replies
  u64 read_fallbacks = 0;      ///< this node's delta reads that fell back to full
  u64 records_folded = 0;  ///< records summarized by the checkpoint
  u64 live_records = 0;    ///< record bodies currently held (view size)
  u64 parked_rejects = 0;  ///< admissions refused by the parked cap
  u64 rss_kb = 0;          ///< resident set size of the node process, KiB
  u64 log_bytes = 0;       ///< bytes in the durable append log (0 without --store-dir)
  u64 snapshot_count = 0;  ///< snapshots loaded at open plus written since
  u64 recovery_replayed_records = 0;  ///< records replayed from disk at startup
  u64 fsyncs = 0;          ///< fdatasyncs the durable store issued (StorageStats::fsyncs)
  u64 links_up = 0;        ///< outbound peer links currently connected
};

/// One row of the serialization table: script-facing name plus the member
/// it reads. The table order *is* the wire order of the ctl stats block.
struct NodeStatsField {
  const char* name;
  u64 NodeStats::*member;
};

inline constexpr NodeStatsField kNodeStatsFields[] = {
    {"msgs", &NodeStats::messages_sent},
    {"bytes", &NodeStats::bytes_sent},
    {"view", &NodeStats::view_size},
    {"appends", &NodeStats::appends_issued},
    {"reconnects", &NodeStats::reconnects},
    {"auth_rejects", &NodeStats::auth_rejects},
    {"sig_rejects", &NodeStats::sig_rejects},
    {"reads_full", &NodeStats::reads_served_full},
    {"reads_delta", &NodeStats::reads_served_delta},
    {"read_records_sent", &NodeStats::read_records_sent},
    {"read_fallbacks", &NodeStats::read_fallbacks},
    {"records_folded", &NodeStats::records_folded},
    {"live_records", &NodeStats::live_records},
    {"parked_rejects", &NodeStats::parked_rejects},
    {"rss_kb", &NodeStats::rss_kb},
    {"log_bytes", &NodeStats::log_bytes},
    {"snapshot_count", &NodeStats::snapshot_count},
    {"recovery_replayed_records", &NodeStats::recovery_replayed_records},
    {"fsyncs", &NodeStats::fsyncs},
    {"links_up", &NodeStats::links_up},
};

inline constexpr usize kNodeStatsFieldCount = std::size(kNodeStatsFields);

}  // namespace amm::mp
