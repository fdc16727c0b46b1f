// Interprets a MemoryView as a block graph.
//
// Every message references earlier appends; the first reference acts as the
// *parent edge* (the chain/pivot structure), any further references are
// inclusion edges (the DAG structure, as in inclusive blockchains /
// Conflux). Messages with no references attach to a virtual root — the
// paper's "dummy append, e.g. the empty state of the memory" (§5.3).
//
// Views of the append memory form a lattice and only ever grow (§2, §5.3),
// so the graph is *incrementally extendable*: `extend(newer)` ingests only
// the messages of `newer` that the current view does not contain, instead
// of reconstructing the whole graph. Protocols that observe a growing view
// carry one graph across rounds; an extension costs O(delta) for the graph
// structure, while the order-dependent analytics (children lists, GHOST
// weights, the deterministic topological order) are recomputed lazily on
// first access after a change. Extending to view V yields a graph bit-identical to
// `BlockGraph(V)` built from scratch — the property tests assert this.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "am/memory.hpp"
#include "support/assert.hpp"

namespace amm::chain {

using am::MemoryView;
using am::Message;
using am::MsgId;

/// Sentinel id for the virtual root block.
inline constexpr MsgId kRootId{~u32{0}, ~u32{0}};

class BlockGraph {
 public:
  /// An empty graph; bound to a memory by the first extend().
  BlockGraph() = default;

  /// Builds the graph of every message visible in `view`. O(messages + refs
  /// + registers).
  explicit BlockGraph(const MemoryView& view) { extend(view); }

  /// Ingests every message visible in `newer` but not in the current view.
  /// `newer` must be a superset view of the same memory (views only grow).
  /// Postcondition: *this is bit-identical to BlockGraph(newer).
  void extend(const MemoryView& newer);

  /// Empties the graph and unbinds it from its memory, as a fresh
  /// BlockGraph() would be, but keeps the capacity of its node, index,
  /// reference and work arrays: a graph rebuilt trial after trial on one
  /// thread reuses them once it has held a graph as large.
  void clear();

  const MemoryView& view() const { return view_; }
  usize block_count() const { return nodes_.size(); }  // excludes the root

  /// The graph holds exactly the blocks of its view.
  bool contains(MsgId id) const { return view_.contains(id); }

  /// Dense position of `id` in [0, block_count()): MsgId = (author, seq) is
  /// a perfect 2D index, so the lookup is two array loads — no hashing.
  /// Positions are stable across extend() calls. Hot-path analytics
  /// (chain/rules.cpp) use positions to replace hash maps with flat arrays.
  usize index_of(MsgId id) const {
    AMM_EXPECTS(contains(id));
    return index_[row_begin_[id.author] + id.seq];
  }

  /// The block at dense position `pos` (inverse of index_of).
  MsgId id_at(usize pos) const { return nodes_[pos].id; }

  /// Parent in the chain sense (first reference), kRootId for ref-less
  /// messages. Unseen parents (possible for Byzantine messages referencing
  /// appends outside this view) also map to kRootId.
  MsgId parent(MsgId id) const { return node(id).parent; }

  /// Depth = distance from the virtual root along parent edges (root = 0).
  u32 depth(MsgId id) const { return node(id).depth; }

  /// Number of blocks in the subtree rooted at `id` (including itself)
  /// under parent edges — the GHOST weight.
  u32 subtree_weight(MsgId id) const {
    ensure_weights();
    return weights_[index_of(id)];
  }

  /// Children along parent edges, in append-time order. The spans are
  /// valid until the next extend().
  std::span<const MsgId> children(MsgId id) const { return children_at(index_of(id)); }
  std::span<const MsgId> root_children() const { return children_at(nodes_.size()); }

  /// All references of `id` that are visible in the view (parent included).
  /// The span is valid until the next extend().
  std::span<const MsgId> refs(MsgId id) const {
    const Node& n = node(id);
    return {ref_ids_.data() + n.refs_begin, n.refs_count};
  }
  /// The same references as dense positions.
  std::span<const u32> ref_positions(usize pos) const {
    return {ref_pos_.data() + nodes_[pos].refs_begin, nodes_[pos].refs_count};
  }

  const Message& msg(MsgId id) const { return view_.msg(id); }

  /// Maximum depth over all blocks (0 if the view is empty).
  u32 max_depth() const { return max_depth_; }

  /// All blocks at maximal depth, in append-time order — the set C of "last
  /// states in the longest chains" of Algorithm 5.
  const std::vector<MsgId>& deepest_blocks() const { return deepest_; }

  /// Blocks never referenced by any other visible block — the DAG tips
  /// Algorithm 6 appends to. A parent-edge child references its parent, so
  /// these are also the blocks without children.
  std::vector<MsgId> tips() const;

  /// The chain from the root to `tip` (root excluded), oldest first.
  std::vector<MsgId> chain_to(MsgId tip) const;

  /// Blocks in a deterministic topological order (parents and referenced
  /// blocks before referrers; ties by append order).
  const std::vector<MsgId>& topo_order() const {
    ensure_topo();
    return topo_;
  }
  /// The same order as dense positions.
  std::span<const u32> topo_positions() const {
    ensure_topo();
    return topo_pos_;
  }

 private:
  struct Node {
    MsgId id;
    MsgId parent = kRootId;
    SimTime time = 0.0;  // appended_at, cached for order keys
    u32 depth = 0;
    // Visible refs only, in message order: ref_ids_/ref_pos_ entries
    // [refs_begin, refs_begin + refs_count). The first is the parent.
    u32 refs_begin = 0;
    u32 refs_count = 0;
    bool referenced = false;  // appears in someone's ref list
  };

  const Node& node(MsgId id) const { return nodes_[index_of(id)]; }

  /// Canonical (appended_at, id) order of two positions — the order a
  /// from-scratch build ingests nodes in.
  bool key_less(u32 a, u32 b) const {
    const Node& na = nodes_[a];
    const Node& nb = nodes_[b];
    if (na.time != nb.time) return na.time < nb.time;
    return na.id < nb.id;
  }

  /// The parent's children slot: its position, or block_count() for the
  /// virtual root.
  usize parent_slot(const Node& n) const {
    return n.refs_count == 0 ? nodes_.size() : ref_pos_[n.refs_begin];
  }

  std::span<const MsgId> children_at(usize slot) const {
    ensure_children();
    return {child_ids_.data() + child_begin_[slot], child_begin_[slot + 1] - child_begin_[slot]};
  }

  /// Makes every author's index row hold its messages in `newer`.
  void grow_rows(const MemoryView& newer);
  /// Records `m`'s visible references as node `p`'s, at the end of the
  /// reference pool, and marks their targets referenced.
  void resolve_refs(usize p, const Message& m);
  /// Depths of the nodes from position `first` on that have none yet.
  void settle_depths(usize first);
  void recompute_frontier();

  // Lazy analytics: recomputed on first access after an extend. NOT
  // thread-safe for concurrent first access — a graph belongs to one
  // simulation trial (Core Guidelines CP.3), like the memory it reads.
  void ensure_children() const;
  void ensure_weights() const;
  void ensure_topo() const;

  MemoryView view_;
  std::vector<Node> nodes_;  // ingestion order; positions stable
  /// The (author, seq) -> position index, one slab: author a's row starts
  /// at row_begin_[a] and holds row_begin_[a + 1] - row_begin_[a] entries,
  /// the first view_.register_len(a) of them in use.
  std::vector<u32> index_;
  std::vector<u32> row_begin_;
  std::vector<u32> order_;  // positions in (appended_at, id) order
  /// Every node's visible references, as ids and as positions, in one pool
  /// instead of a vector per node. A late reveal re-resolves its waiters'
  /// references into a fresh range and leaves the old one unused.
  std::vector<MsgId> ref_ids_;
  std::vector<u32> ref_pos_;
  std::vector<MsgId> deepest_;  // append-time order
  u32 max_depth_ = 0;
  std::vector<u32> depth_stack_;  // settle_depths' work stack
  /// Unresolved references (targets outside every view seen so far) ->
  /// waiting positions. Cold path: only Byzantine messages cite appends
  /// their observer has not seen, so a hash map is fine here.
  std::unordered_map<MsgId, std::vector<u32>> pending_;

  /// Parent-edge children in CSR form: slot s (a position, or
  /// block_count() for the root) owns child_ids_[child_begin_[s] ..
  /// child_begin_[s + 1]).
  mutable std::vector<u32> child_begin_;
  mutable std::vector<MsgId> child_ids_;
  mutable std::vector<u32> weights_;  // by position
  mutable std::vector<MsgId> topo_;
  mutable std::vector<u32> topo_pos_;
  /// Work arrays of ensure_weights and ensure_topo (CSR offsets, a list of
  /// positions, in-degrees), kept so that a reused graph recomputes its
  /// analytics without allocating.
  mutable std::vector<u32> work_offsets_;
  mutable std::vector<u32> work_list_;
  mutable std::vector<u32> work_degree_;
  mutable bool children_valid_ = false;
  mutable bool weights_valid_ = false;
  mutable bool topo_valid_ = false;
};

}  // namespace amm::chain
