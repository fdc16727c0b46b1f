#include "chain/block_graph.hpp"

#include <algorithm>

#include "am/order.hpp"

namespace amm::chain {

namespace {

/// Grows `v` to hold at least `need` elements without giving up geometric
/// growth: an exact-fit reserve on every extend() would reallocate the
/// whole vector on each call.
template <typename T>
void reserve_at_least(std::vector<T>& v, usize need) {
  if (v.capacity() < need) v.reserve(std::max(need, 2 * v.capacity()));
}

}  // namespace

void BlockGraph::resolve_refs(usize p, const Message& m) {
  Node& n = nodes_[p];
  n.refs_begin = static_cast<u32>(ref_ids_.size());
  for (const MsgId ref : m.refs) {
    if (!view_.contains(ref)) continue;
    const usize target = index_of(ref);
    ref_ids_.push_back(ref);
    ref_pos_.push_back(static_cast<u32>(target));
    nodes_[target].referenced = true;
  }
  n.refs_count = static_cast<u32>(ref_ids_.size()) - n.refs_begin;
  n.parent = n.refs_count == 0 ? kRootId : ref_ids_[n.refs_begin];
}

void BlockGraph::attach_child(MsgId parent, MsgId child) {
  std::vector<MsgId>& siblings =
      parent == kRootId ? root_children_ : nodes_[index_of(parent)].children;
  // Keep append-time order. The common case (a fresh block extending the
  // frontier) lands at the end in O(1); only a late-revealed old message
  // pays the positional insert.
  if (siblings.empty() || key_less(siblings.back(), child)) {
    siblings.push_back(child);
    return;
  }
  const auto it = std::lower_bound(siblings.begin(), siblings.end(), child,
                                   [this](MsgId a, MsgId b) { return key_less(a, b); });
  siblings.insert(it, child);
}

void BlockGraph::detach_child(MsgId parent, MsgId child) {
  std::vector<MsgId>& siblings =
      parent == kRootId ? root_children_ : nodes_[index_of(parent)].children;
  const auto it = std::find(siblings.begin(), siblings.end(), child);
  AMM_ASSERT(it != siblings.end());
  siblings.erase(it);
}

void BlockGraph::extend(const MemoryView& newer) {
  AMM_EXPECTS(newer.valid());
  if (!view_.valid()) {
    // First extension binds the graph to the view's memory.
    view_ = MemoryView(&newer.memory(), std::vector<u32>(newer.register_count(), 0));
    index_.resize(newer.register_count());
  }
  AMM_EXPECTS(&view_.memory() == &newer.memory());
  AMM_EXPECTS(view_.subset_of(newer));

  // Only the newly visible messages, in canonical (appended_at, id) order —
  // a scan of the memory's log over the per-register delta ranges.
  const std::vector<MsgId> delta =
      am::merge_append_order(newer.memory(), view_.lens(), newer.lens());
  view_ = newer;
  if (delta.empty()) return;

  // Pass 1: create nodes and dense index entries. Within one register the
  // delta arrives in sequence order, so the per-author index grows by
  // push_back, each array reserved once per extension.
  const usize first_new = nodes_.size();
  reserve_at_least(nodes_, nodes_.size() + delta.size());
  reserve_at_least(order_, order_.size() + delta.size());
  for (u32 r = 0; r < newer.register_count(); ++r) {
    reserve_at_least(index_[r], newer.register_len(r));
  }
  for (const MsgId id : delta) {
    AMM_ASSERT(index_[id.author].size() == id.seq);
    index_[id.author].push_back(static_cast<u32>(nodes_.size()));
    Node n;
    n.id = id;
    n.time = view_.msg(id).appended_at;
    nodes_.push_back(std::move(n));
  }

  // Canonical order: the old prefix and the delta are each sorted, so a
  // single in-place merge restores the invariant. The common case (all new
  // messages later than everything seen) is a pure append.
  const usize old_order = order_.size();
  for (usize p = first_new; p < nodes_.size(); ++p) order_.push_back(static_cast<u32>(p));
  if (old_order != 0 &&
      key_less(nodes_[order_[old_order]].id, nodes_[order_[old_order - 1]].id)) {
    std::inplace_merge(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(old_order),
                       order_.end(),
                       [this](u32 a, u32 b) { return key_less(nodes_[a].id, nodes_[b].id); });
  }

  // Pass 2: resolve the new nodes' references. References outside the view
  // (a Byzantine message may cite an append this observer has not seen) are
  // parked in pending_; such a block hangs off the root until the target
  // becomes visible.
  for (usize p = first_new; p < nodes_.size(); ++p) {
    const Message& m = view_.msg(nodes_[p].id);
    for (const MsgId ref : m.refs) {
      if (!view_.contains(ref)) pending_[ref].push_back(static_cast<u32>(p));
    }
    resolve_refs(p, m);
    attach_child(nodes_[p].parent, nodes_[p].id);
  }

  // Pass 3: wake waiters whose awaited target just became visible. The
  // parent is the *first visible* reference, so a late-revealed earlier
  // reference can reparent an existing block — exactly what a from-scratch
  // build of the larger view would have done.
  bool reparented = false;
  for (const MsgId id : delta) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    for (const u32 wp : it->second) {
      const MsgId old_parent = nodes_[wp].parent;
      resolve_refs(wp, view_.msg(nodes_[wp].id));
      const Node& w = nodes_[wp];
      if (w.parent != old_parent) {
        detach_child(old_parent, w.id);
        attach_child(w.parent, w.id);
        reparented = true;
      }
    }
    pending_.erase(it);
  }

  if (reparented) {
    // Reparenting cascades through depths; recompute wholesale (cold path —
    // requires a Byzantine dangling reference resolved late).
    recompute_all_depths();
    recompute_frontier();
  } else {
    // Depths of the new nodes only, via an explicit stack (no recursion;
    // chains can be long). A parent is either settled (depth > 0) or a new
    // node reachable through the stack.
    std::vector<usize> stack;
    for (usize i = first_new; i < nodes_.size(); ++i) {
      if (nodes_[i].depth != 0) continue;
      stack.push_back(i);
      while (!stack.empty()) {
        const usize cur = stack.back();
        Node& n = nodes_[cur];
        if (n.parent == kRootId) {
          n.depth = 1;
          stack.pop_back();
          continue;
        }
        const usize pi = index_of(n.parent);
        if (nodes_[pi].depth == 0) {
          stack.push_back(pi);
          continue;
        }
        n.depth = nodes_[pi].depth + 1;
        stack.pop_back();
      }
    }
    // Frontier update, keeping deepest_ in append-time order (a new block
    // at the frontier lands at the end; a late-revealed equal-depth block
    // slots into position).
    for (usize i = first_new; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      if (n.depth > max_depth_) {
        max_depth_ = n.depth;
        deepest_.clear();
      }
      if (n.depth == max_depth_) {
        if (deepest_.empty() || key_less(deepest_.back(), n.id)) {
          deepest_.push_back(n.id);
        } else {
          const auto pos = std::lower_bound(deepest_.begin(), deepest_.end(), n.id,
                                            [this](MsgId a, MsgId b) { return key_less(a, b); });
          deepest_.insert(pos, n.id);
        }
      }
    }
  }

  weights_valid_ = false;
  topo_valid_ = false;
}

void BlockGraph::recompute_all_depths() {
  for (Node& n : nodes_) n.depth = 0;
  std::vector<usize> stack;
  for (usize i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].depth != 0) continue;
    stack.push_back(i);
    while (!stack.empty()) {
      const usize cur = stack.back();
      Node& n = nodes_[cur];
      if (n.parent == kRootId) {
        n.depth = 1;
        stack.pop_back();
        continue;
      }
      const usize pi = index_of(n.parent);
      if (nodes_[pi].depth == 0) {
        stack.push_back(pi);
        continue;
      }
      n.depth = nodes_[pi].depth + 1;
      stack.pop_back();
    }
  }
}

void BlockGraph::recompute_frontier() {
  max_depth_ = 0;
  for (const Node& n : nodes_) max_depth_ = std::max(max_depth_, n.depth);
  deepest_.clear();
  for (const u32 p : order_) {
    if (nodes_[p].depth == max_depth_) deepest_.push_back(nodes_[p].id);
  }
}

void BlockGraph::ensure_weights() const {
  if (weights_valid_) return;
  // GHOST weights — accumulate bottom-up by descending depth. A block is
  // one deeper than its parent, so each subtree is complete before its
  // root is added to the root's parent. The weights are integer sums, so
  // the order within one depth is free: a counting sort by depth does.
  weights_.assign(nodes_.size(), 1);
  std::vector<u32> depth_start(max_depth_ + 2, 0);
  for (const Node& n : nodes_) ++depth_start[n.depth + 1];
  for (usize d = 1; d < depth_start.size(); ++d) depth_start[d] += depth_start[d - 1];
  std::vector<u32> by_depth(nodes_.size());
  for (usize p = 0; p < nodes_.size(); ++p) {
    by_depth[depth_start[nodes_[p].depth]++] = static_cast<u32>(p);
  }
  for (auto it = by_depth.rbegin(); it != by_depth.rend(); ++it) {
    const Node& n = nodes_[*it];
    if (n.parent != kRootId) weights_[index_of(n.parent)] += weights_[*it];
  }
  weights_valid_ = true;
}

void BlockGraph::ensure_topo() const {
  if (topo_valid_) return;
  // Deterministic topological order over all visible ref edges: Kahn, with
  // the ready set served first in, first out, seeded in canonical order and
  // fanned out along each block's referrers in canonical order. Every block
  // enters the ready queue exactly once, so the queue is a flat vector
  // consumed from a moving head, and its final contents are the order.
  const usize count = nodes_.size();
  std::vector<u32> in_degree(count);
  // Referrer lists in CSR form: block p's referrers are
  // referrers[first[p] .. first[p + 1]). Counting fills first[] with each
  // list's end; filling it back to front, in reverse canonical order,
  // leaves each list in canonical order and first[p] at its start.
  std::vector<u32> first(count + 1, 0);
  for (usize p = 0; p < count; ++p) {
    in_degree[p] = nodes_[p].refs_count;
    for (const u32 target : ref_positions(p)) ++first[target];
  }
  u32 edges = 0;
  for (u32& end : first) {
    edges += end;
    end = edges;
  }
  std::vector<u32> referrers(edges);
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    for (const u32 target : ref_positions(*it)) referrers[--first[target]] = *it;
  }

  std::vector<u32> queue;
  queue.reserve(count);
  for (const u32 p : order_) {
    if (in_degree[p] == 0) queue.push_back(p);
  }
  for (usize head = 0; head < queue.size(); ++head) {
    const u32 p = queue[head];
    for (u32 e = first[p]; e < first[p + 1]; ++e) {
      const u32 j = referrers[e];
      if (--in_degree[j] == 0) queue.push_back(j);
    }
  }
  AMM_ENSURES(queue.size() == count);  // views are acyclic by construction
  topo_.resize(count);
  for (usize i = 0; i < count; ++i) topo_[i] = nodes_[queue[i]].id;
  topo_valid_ = true;
}

std::vector<MsgId> BlockGraph::tips() const {
  std::vector<MsgId> result;
  for (const u32 p : order_) {
    const Node& n = nodes_[p];
    if (n.children.empty() && !n.referenced) result.push_back(n.id);
  }
  return result;
}

std::vector<MsgId> BlockGraph::chain_to(MsgId tip) const {
  std::vector<MsgId> chain;
  MsgId cur = tip;
  while (cur != kRootId) {
    chain.push_back(cur);
    cur = parent(cur);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace amm::chain
