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

/// Turns per-slot counts into running ends: offsets[s] becomes the end of
/// slot s's range. Filling the ranges back to front then leaves offsets[s]
/// at the start of slot s's range.
void counts_to_ends(std::vector<u32>& offsets) {
  u32 total = 0;
  for (u32& end : offsets) {
    total += end;
    end = total;
  }
}

}  // namespace

void BlockGraph::clear() {
  view_ = MemoryView();
  nodes_.clear();
  order_.clear();
  ref_ids_.clear();
  ref_pos_.clear();
  deepest_.clear();
  max_depth_ = 0;
  pending_.clear();
  children_valid_ = false;
  weights_valid_ = false;
  topo_valid_ = false;
}

void BlockGraph::grow_rows(const MemoryView& newer) {
  const u32 regs = newer.register_count();
  const auto cap = [&](u32 r) { return row_begin_[r + 1] - row_begin_[r]; };
  bool fits = true;
  for (u32 r = 0; r < regs && fits; ++r) fits = newer.register_len(r) <= cap(r);
  if (fits) return;
  // Re-lay the slab. An empty graph (a from-scratch build) gets rows that
  // fit `newer` exactly; otherwise each overflowing row gets twice what it
  // needs, so a row of a graph carried across growing views overflows
  // O(log) times. Rows only grow, so moving them last row first, each
  // back to front, never overwrites an entry before it is moved.
  const bool exact = nodes_.empty();
  const auto new_cap = [&](u32 r) {
    const u32 need = newer.register_len(r);
    return need <= cap(r) ? cap(r) : (exact ? need : 2 * need);
  };
  u32 total = 0;
  for (u32 r = 0; r < regs; ++r) total += new_cap(r);
  index_.resize(total);
  u32 end = total;
  for (u32 r = regs; r-- > 0;) {
    const u32 begin = end - new_cap(r);
    const u32 used = view_.valid() ? view_.register_len(r) : 0;
    if (begin != row_begin_[r]) {
      const auto old_row = index_.begin() + row_begin_[r];
      std::copy_backward(old_row, old_row + used, index_.begin() + begin + used);
    }
    row_begin_[r + 1] = end;
    end = begin;
  }
  AMM_ASSERT(end == 0);
}

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

void BlockGraph::extend(const MemoryView& newer) {
  AMM_EXPECTS(newer.valid());
  if (view_.valid()) {
    AMM_EXPECTS(&view_.memory() == &newer.memory());
    AMM_EXPECTS(view_.subset_of(newer));
  } else {
    // The first extension binds the graph to the view's memory.
    row_begin_.assign(newer.register_count() + 1, 0);
  }

  // Only the newly visible messages, in canonical (appended_at, id) order —
  // a scan of the memory's log over the per-register delta ranges (an
  // unbound graph's empty lens read as all zeros).
  const std::vector<MsgId> delta =
      am::merge_append_order(newer.memory(), view_.lens(), newer.lens());
  grow_rows(newer);
  view_ = newer;
  if (delta.empty()) return;

  // Pass 1: create nodes and dense index entries.
  const usize first_new = nodes_.size();
  reserve_at_least(nodes_, nodes_.size() + delta.size());
  reserve_at_least(order_, order_.size() + delta.size());
  for (const MsgId id : delta) {
    index_[row_begin_[id.author] + id.seq] = static_cast<u32>(nodes_.size());
    Node n;
    n.id = id;
    n.time = view_.msg(id).appended_at;
    nodes_.push_back(n);
  }

  // Canonical order: the old prefix and the delta are each sorted, so a
  // single in-place merge restores the invariant. The common case (all new
  // messages later than everything seen) is a pure append.
  const usize old_order = order_.size();
  for (usize p = first_new; p < nodes_.size(); ++p) order_.push_back(static_cast<u32>(p));
  if (old_order != 0 && key_less(order_[old_order], order_[old_order - 1])) {
    std::inplace_merge(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(old_order),
                       order_.end(), [this](u32 a, u32 b) { return key_less(a, b); });
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
  }

  // Pass 3: wake waiters whose awaited target just became visible. The
  // parent is the *first visible* reference, so a late-revealed earlier
  // reference can reparent an existing block — exactly what a from-scratch
  // build of the larger view would have done.
  bool reparented = false;
  if (!pending_.empty()) {
    for (const MsgId id : delta) {
      const auto it = pending_.find(id);
      if (it == pending_.end()) continue;
      for (const u32 wp : it->second) {
        const MsgId old_parent = nodes_[wp].parent;
        resolve_refs(wp, view_.msg(nodes_[wp].id));
        reparented = reparented || nodes_[wp].parent != old_parent;
      }
      pending_.erase(it);
    }
  }

  if (reparented) {
    // Reparenting cascades through depths; recompute wholesale (cold path —
    // requires a Byzantine dangling reference resolved late).
    for (Node& n : nodes_) n.depth = 0;
    settle_depths(0);
    recompute_frontier();
  } else {
    settle_depths(first_new);
    // Frontier update, keeping deepest_ in append-time order (a new block
    // at the frontier lands at the end; a late-revealed equal-depth block
    // slots into position).
    for (usize i = first_new; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      if (n.depth > max_depth_) {
        max_depth_ = n.depth;
        deepest_.clear();
      }
      if (n.depth != max_depth_) continue;
      const auto pos = static_cast<u32>(i);
      if (deepest_.empty() || key_less(static_cast<u32>(index_of(deepest_.back())), pos)) {
        deepest_.push_back(n.id);
      } else {
        const auto at = std::lower_bound(
            deepest_.begin(), deepest_.end(), pos,
            [this](MsgId a, u32 b) { return key_less(static_cast<u32>(index_of(a)), b); });
        deepest_.insert(at, n.id);
      }
    }
  }

  children_valid_ = false;
  weights_valid_ = false;
  topo_valid_ = false;
}

void BlockGraph::settle_depths(usize first) {
  // An explicit stack, not recursion: chains can be long. A parent is
  // either settled (depth > 0) or reachable through the stack.
  for (usize i = first; i < nodes_.size(); ++i) {
    if (nodes_[i].depth != 0) continue;
    depth_stack_.push_back(static_cast<u32>(i));
    while (!depth_stack_.empty()) {
      Node& n = nodes_[depth_stack_.back()];
      if (n.refs_count == 0) {
        n.depth = 1;
        depth_stack_.pop_back();
        continue;
      }
      const u32 pi = ref_pos_[n.refs_begin];
      if (nodes_[pi].depth == 0) {
        depth_stack_.push_back(pi);
        continue;
      }
      n.depth = nodes_[pi].depth + 1;
      depth_stack_.pop_back();
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

void BlockGraph::ensure_children() const {
  if (children_valid_) return;
  // Counting fills child_begin_ with each slot's end; filling back to
  // front, in reverse canonical order, leaves every list in canonical
  // (append-time) order and child_begin_[s] at its start.
  const usize count = nodes_.size();
  child_begin_.assign(count + 2, 0);
  for (const Node& n : nodes_) ++child_begin_[parent_slot(n)];
  counts_to_ends(child_begin_);
  child_ids_.resize(count);
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const Node& n = nodes_[*it];
    child_ids_[--child_begin_[parent_slot(n)]] = n.id;
  }
  children_valid_ = true;
}

void BlockGraph::ensure_weights() const {
  if (weights_valid_) return;
  // GHOST weights — accumulate bottom-up by descending depth. A block is
  // one deeper than its parent, so each subtree is complete before its
  // root is added to the root's parent. The weights are integer sums, so
  // the order within one depth is free: a counting sort by depth does.
  const usize count = nodes_.size();
  weights_.assign(count, 1);
  std::vector<u32>& depth_start = work_offsets_;
  std::vector<u32>& by_depth = work_list_;
  depth_start.assign(max_depth_ + 2, 0);
  for (const Node& n : nodes_) ++depth_start[n.depth + 1];
  counts_to_ends(depth_start);
  by_depth.resize(count);
  for (usize p = 0; p < count; ++p) by_depth[depth_start[nodes_[p].depth]++] = static_cast<u32>(p);
  for (auto it = by_depth.rbegin(); it != by_depth.rend(); ++it) {
    const Node& n = nodes_[*it];
    if (n.refs_count != 0) weights_[ref_pos_[n.refs_begin]] += weights_[*it];
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
  std::vector<u32>& in_degree = work_degree_;
  // Referrer lists in CSR form: block p's referrers are
  // referrers[first[p] .. first[p + 1]), in canonical order.
  std::vector<u32>& first = work_offsets_;
  std::vector<u32>& referrers = work_list_;
  in_degree.resize(count);
  first.assign(count + 1, 0);
  for (usize p = 0; p < count; ++p) {
    in_degree[p] = nodes_[p].refs_count;
    for (const u32 target : ref_positions(p)) ++first[target];
  }
  counts_to_ends(first);
  referrers.resize(first[count]);
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    for (const u32 target : ref_positions(*it)) referrers[--first[target]] = *it;
  }

  std::vector<u32>& queue = topo_pos_;
  queue.clear();
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
    if (!nodes_[p].referenced) result.push_back(nodes_[p].id);
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
