#include "check/audit.hpp"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "crypto/siphash.hpp"
#include "support/assert.hpp"

namespace amm::check {
namespace {

/// Fixed audit key: the digests only need to detect accidental mutation,
/// not withstand an adversary with access to the process image.
constexpr crypto::SipKey kAuditKey{0x414d4d5f41554449ULL, 0x545f4b45595f3031ULL};

[[noreturn]] void audit_failure(const char* invariant, const char* detail) {
  std::fprintf(stderr, "amm audit: %s violated (%s)\n", invariant, detail);
  std::abort();
}

u64 bits(SimTime t) {
  static_assert(sizeof(SimTime) == sizeof(u64));
  u64 out;
  __builtin_memcpy(&out, &t, sizeof(out));
  return out;
}

}  // namespace

u64 message_digest(const am::Message& msg) {
  std::vector<u64> words;
  words.reserve(5 + msg.refs.size());
  words.push_back((static_cast<u64>(msg.id.author) << 32) | msg.id.seq);
  words.push_back(static_cast<u64>(static_cast<i64>(vote_value(msg.value))));
  words.push_back(msg.payload);
  words.push_back(bits(msg.appended_at));
  words.push_back(static_cast<u64>(msg.refs.size()));
  for (const am::MsgId ref : msg.refs) {
    words.push_back((static_cast<u64>(ref.author) << 32) | ref.seq);
  }
  return crypto::siphash24(kAuditKey, words);
}

void MemoryAuditor::audit(const am::AppendMemory& memory) {
  if (regs_.empty()) {
    regs_.resize(memory.node_count());
  } else if (regs_.size() != memory.node_count()) {
    audit_failure("memory identity", "register count changed between audits");
  }

  for (u32 r = 0; r < memory.node_count(); ++r) {
    const am::Register reg = memory.reg(r);
    RegisterState& state = regs_[r];
    if (reg.size() < state.len) {
      audit_failure("append-only growth", "register shrank since the last audit");
    }

    // (a) The previously-recorded prefix must hash to the recorded digest:
    // any in-place edit or reorder of an already-audited message changes
    // the rolling digest chain.
    u64 digest = 0;
    SimTime prev_time = 0.0;
    for (u32 s = 0; s < reg.size(); ++s) {
      const am::Message& msg = reg.at(s);
      if (msg.id.author != r || msg.id.seq != s) {
        audit_failure("message immutability", "message id does not match its slot");
      }
      if (s > 0 && msg.appended_at < prev_time) {
        audit_failure("append-time monotonicity", "later slot has an earlier append time");
      }
      prev_time = msg.appended_at;
      for (const am::MsgId ref : msg.refs) {
        if (!memory.exists(ref)) {
          audit_failure("reference validity", "message references a non-existent append");
        }
        if (memory.msg(ref).appended_at > msg.appended_at) {
          audit_failure("reference validity", "message references a later append");
        }
      }
      const u64 link[2] = {digest, message_digest(msg)};
      digest = crypto::siphash24(kAuditKey, link);
      if (s + 1 == state.len && digest != state.digest) {
        audit_failure("message immutability", "audited register prefix changed");
      }
    }

    // (b) Extend the record over the new suffix.
    state.len = reg.size();
    state.digest = digest;
  }
  ++audits_;
}

void MemoryAuditor::audit_view(const am::MemoryView& view) {
  if (!view.valid()) return;
  const std::vector<u32>& lens = view.lens();
  if (!view_lens_.empty()) {
    if (view_lens_.size() != lens.size()) {
      audit_failure("view monotonicity", "register count changed between views");
    }
    for (usize r = 0; r < lens.size(); ++r) {
      if (lens[r] < view_lens_[r]) {
        audit_failure("view monotonicity", "observed view lost an audited prefix");
      }
    }
  }
  for (u32 r = 0; r < view.register_count(); ++r) {
    if (view.register_len(r) > view.memory().reg(r).size()) {
      audit_failure("view validity", "view extends beyond its register");
    }
  }
  view_lens_ = lens;
  ++audits_;
}

void audit_graph(const chain::BlockGraph& graph) {
  const std::vector<chain::MsgId>& topo = graph.topo_order();
  if (topo.size() != graph.block_count()) {
    audit_failure("DAG acyclicity", "topological order does not cover every block");
  }

  std::unordered_map<chain::MsgId, usize> position;
  position.reserve(topo.size());
  for (usize i = 0; i < topo.size(); ++i) {
    const bool inserted = position.emplace(topo[i], i).second;
    if (!inserted) {
      audit_failure("DAG acyclicity", "block listed twice in the topological order");
    }
  }

  for (const chain::MsgId id : topo) {
    const usize pos = position.at(id);
    for (const chain::MsgId ref : graph.refs(id)) {
      const auto it = position.find(ref);
      if (it == position.end()) {
        audit_failure("DAG acyclicity", "visible reference missing from the order");
      }
      if (it->second >= pos) {
        audit_failure("DAG acyclicity", "reference edge violates the topological order");
      }
    }

    const chain::MsgId parent = graph.parent(id);
    const u32 expected = parent == chain::kRootId ? 1 : graph.depth(parent) + 1;
    if (graph.depth(id) != expected) {
      audit_failure("parent depth", "depth is not parent depth + 1");
    }

    u32 weight = 1;
    for (const chain::MsgId child : graph.children(id)) {
      if (graph.parent(child) != id) {
        audit_failure("parent/child symmetry", "child does not name this block as parent");
      }
      weight += graph.subtree_weight(child);
    }
    if (graph.subtree_weight(id) != weight) {
      audit_failure("GHOST weight", "subtree weight does not equal 1 + children's weights");
    }
  }
}

}  // namespace amm::check
