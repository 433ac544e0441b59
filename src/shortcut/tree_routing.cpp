#include "shortcut/tree_routing.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

namespace {

/// The Lemma 2 key of a cast's item for part `j` under `priority`.
std::uint64_t cast_key(RoutingPriority priority, std::int64_t release,
                       std::int32_t root_depth, PartId j) {
  const auto part = static_cast<std::uint64_t>(j);
  switch (priority) {
    case RoutingPriority::kRootDepth:
      return (static_cast<std::uint64_t>(root_depth) << 32) | part;
    case RoutingPriority::kPartId:
      return part;
    case RoutingPriority::kFifo:
      return (static_cast<std::uint64_t>(release + 1) << 32) | part;
  }
  LCS_CHECK(false, "unknown routing priority");
  return part;
}

void check_plan(const SpanningTree& tree, const ComponentPlan& plan) {
  LCS_CHECK(plan.slot_off.size() == tree.depth.size() + 1,
            "component plan built for a different tree");
}

}  // namespace

std::size_t ComponentPlan::slot_index(NodeId v, PartId j) const {
  const auto i = static_cast<std::size_t>(v);
  const auto first = slots.begin() + static_cast<std::ptrdiff_t>(slot_off[i]);
  const auto last =
      slots.begin() + static_cast<std::ptrdiff_t>(slot_off[i + 1]);
  const auto it = std::lower_bound(
      first, last, j, [](const Slot& s, PartId p) { return s.part < p; });
  if (it == last || it->part != j) return slots.size();
  return static_cast<std::size_t>(it - slots.begin());
}

std::vector<NodeId> nodes_by_depth(const SpanningTree& tree) {
  const std::size_t n = tree.depth.size();
  const std::int32_t height =
      n == 0 ? 0 : *std::max_element(tree.depth.begin(), tree.depth.end());
  // A counting sort by depth, stable in node id.
  std::vector<std::size_t> first(util::checked_usize(height) + 2, 0);
  for (const std::int32_t d : tree.depth) ++first[util::checked_usize(d) + 1];
  for (std::size_t d = 1; d < first.size(); ++d) first[d] += first[d - 1];
  std::vector<NodeId> order(n);
  for (std::size_t v = 0; v < n; ++v)
    order[first[static_cast<std::size_t>(tree.depth[v])]++] =
        util::checked_cast<NodeId>(v);
  return order;
}

ComponentPlan make_component_plan(const SpanningTree& tree,
                                  const Shortcut& shortcut) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  ComponentPlan plan;
  plan.slot_off.reserve(n + 1);
  plan.slot_off.push_back(0);

  std::vector<PartId> parts;  // scratch: the parts on v's tree edges
  for (std::size_t v = 0; v < n; ++v) {
    parts.clear();
    for (const EdgeId ce : tree.children_edges[v]) {
      const auto& list = shortcut.parts_on_edge[static_cast<std::size_t>(ce)];
      parts.insert(parts.end(), list.begin(), list.end());
    }
    const EdgeId pe = tree.parent_edge[v];
    if (pe != kNoEdge) {
      const auto& list = shortcut.parts_on_edge[static_cast<std::size_t>(pe)];
      parts.insert(parts.end(), list.begin(), list.end());
    }
    std::sort(parts.begin(), parts.end());
    parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
    for (const PartId j : parts) {
      ComponentPlan::Slot slot;
      slot.part = j;
      plan.slots.push_back(slot);
    }
    plan.slot_off.push_back(plan.slots.size());
  }

  // Every parent-edge slot links to the parent's slot of the same part.
  for (std::size_t v = 0; v < n; ++v) {
    const EdgeId pe = tree.parent_edge[v];
    if (pe == kNoEdge) continue;
    const NodeId up = tree.parent[v];
    LCS_CHECK(up != kNoNode, "the tree root has no parent slot");
    for (const PartId j :
         shortcut.parts_on_edge[static_cast<std::size_t>(pe)]) {
      const std::size_t parent = plan.slot_index(up, j);
      LCS_CHECK(parent < plan.slots.size(),
                "component plan has a slot without its parent slot");
      plan.slots[plan.slot_index(util::checked_cast<NodeId>(v), j)].parent =
          parent;
    }
  }
  for (const NodeId v : nodes_by_depth(tree)) {
    const auto i = static_cast<std::size_t>(v);
    if (plan.slot_off[i + 1] > plan.slot_off[i]) plan.by_depth.push_back(v);
  }
  return plan;
}

void depart_by_key(std::span<QueuedItem> items) {
  if (items.empty()) return;
  std::sort(items.begin(), items.end(),
            [](const QueuedItem& a, const QueuedItem& b) {
              return a.release != b.release ? a.release < b.release
                                            : a.key < b.key;
            });
  if (items.front().release == items.back().release) {
    // All released at once: one per round in key order.
    for (std::size_t k = 0; k < items.size(); ++k)
      items[k].departure = items[k].release + static_cast<std::int64_t>(k);
    return;
  }
  // Released items wait in a min-heap by key; `departed` collects them in
  // departure order.
  const auto later = [](const QueuedItem& a, const QueuedItem& b) {
    return a.key > b.key;
  };
  std::vector<QueuedItem> pending;
  std::vector<QueuedItem> departed;
  departed.reserve(items.size());
  std::size_t next = 0;
  std::int64_t round = items.front().release;
  while (departed.size() < items.size()) {
    if (pending.empty()) round = std::max(round, items[next].release);
    for (; next < items.size() && items[next].release <= round; ++next) {
      pending.push_back(items[next]);
      std::push_heap(pending.begin(), pending.end(), later);
    }
    std::pop_heap(pending.begin(), pending.end(), later);
    pending.back().departure = round++;
    departed.push_back(pending.back());
    pending.pop_back();
  }
  std::copy(departed.begin(), departed.end(), items.begin());
}

congest::PhaseStats cast_stats(std::int64_t latest_departure,
                               std::int64_t messages) {
  return {messages > 0 ? latest_departure + 2 : 0, messages};
}

BroadcastSchedule broadcast_schedule(const SpanningTree& tree,
                                     const ComponentPlan& plan,
                                     RoutingPriority priority) {
  check_plan(tree, plan);
  BroadcastSchedule result;
  result.root.assign(plan.slots.size(), kNoNode);
  // Per slot: its component root's depth, and the round its node learned
  // the word (-1 at the root, which knows it from the start).
  std::vector<std::int32_t> root_depth(plan.slots.size(), -1);
  std::vector<std::int64_t> learned(plan.slots.size(), -1);
  std::vector<QueuedItem> queue;  // the words bound down one tree edge
  std::int64_t latest = -1;
  std::int64_t messages = 0;
  for (const NodeId v : plan.by_depth) {
    const auto i = static_cast<std::size_t>(v);
    queue.clear();
    for (std::size_t s = plan.slot_off[i]; s < plan.slot_off[i + 1]; ++s) {
      const std::size_t up = plan.slots[s].parent;
      if (up == ComponentPlan::kNoSlot) {
        result.root[s] = v;
        root_depth[s] = tree.depth[i];
        continue;
      }
      result.root[s] = result.root[up];
      root_depth[s] = root_depth[up];
      queue.push_back({learned[up],
                       cast_key(priority, learned[up], root_depth[s],
                                plan.slots[s].part),
                       s});
    }
    depart_by_key(queue);
    for (const QueuedItem& item : queue) {
      learned[item.ref] = item.departure + 1;
      latest = std::max(latest, item.departure);
    }
    messages += static_cast<std::int64_t>(queue.size());
  }
  result.stats = cast_stats(latest, messages);
  return result;
}

congest::PhaseStats convergecast_schedule(const SpanningTree& tree,
                                          const ComponentPlan& plan,
                                          RoutingPriority priority) {
  check_plan(tree, plan);
  LCS_CHECK(plan.has_root_depths,
            "convergecast needs the plan's root depths");
  // Per slot: the round its last child's partial aggregate arrived (-1
  // without children, ready from the start).
  std::vector<std::int64_t> ready(plan.slots.size(), -1);
  std::vector<QueuedItem> queue;  // the partial aggregates bound up one edge
  std::int64_t latest = -1;
  std::int64_t messages = 0;
  for (auto it = plan.by_depth.rbegin(); it != plan.by_depth.rend(); ++it) {
    const auto i = static_cast<std::size_t>(*it);
    queue.clear();
    for (std::size_t s = plan.slot_off[i]; s < plan.slot_off[i + 1]; ++s) {
      const ComponentPlan::Slot& slot = plan.slots[s];
      if (!slot.has_parent()) continue;
      queue.push_back(
          {ready[s],
           cast_key(priority, ready[s], slot.parent_root_depth, slot.part),
           s});
    }
    depart_by_key(queue);
    for (const QueuedItem& item : queue) {
      std::int64_t& parent_ready = ready[plan.slots[item.ref].parent];
      parent_ready = std::max(parent_ready, item.departure + 1);
      latest = std::max(latest, item.departure);
    }
    messages += static_cast<std::int64_t>(queue.size());
  }
  return cast_stats(latest, messages);
}

}  // namespace lcs
