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

ComponentPlan make_component_plan(const SpanningTree& tree,
                                  const Shortcut& shortcut) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  const auto ids_on = [&](EdgeId e) -> const std::vector<PartId>& {
    return shortcut.parts_on_edge[static_cast<std::size_t>(e)];
  };
  // Every entry of a tree edge's id list has a flat number: node v's
  // parent-edge entries are entry_off[v] onwards.
  std::vector<std::size_t> entry_off(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const EdgeId pe = tree.parent_edge[v];
    entry_off[v + 1] = entry_off[v] + (pe == kNoEdge ? 0 : ids_on(pe).size());
  }
  LCS_CHECK(entry_off[n] <= 0xFFFFFFFFu,
            "too many shortcut entries for a 32-bit entry number");
  // Per entry: the slot of the endpoint that met it first, until the other
  // endpoint meets it and links the lower endpoint's slot to the upper's.
  std::vector<std::size_t> first_slot(entry_off[n], ComponentPlan::kNoSlot);
  std::size_t links = 0;

  ComponentPlan plan;
  plan.slot_off.reserve(n + 1);
  plan.slot_off.push_back(0);
  // Each entry's lower endpoint has its own slot for the entry's part; the
  // component roots' slots come on top. A root slot (v, j) owns the entry
  // of j on one of v's child edges, and no other root slot owns that entry,
  // so there are at most as many root slots as entries.
  plan.slots.reserve(2 * entry_off[n]);
  std::vector<std::uint64_t> keys;  // scratch: (part, entry) on v's edges
  for (std::size_t v = 0; v < n; ++v) {
    keys.clear();
    const auto add_edge = [&](EdgeId e) {
      const std::vector<PartId>& ids = ids_on(e);
      const std::size_t first =
          entry_off[static_cast<std::size_t>(tree.lower_endpoint(e))];
      for (std::size_t k = 0; k < ids.size(); ++k)
        keys.push_back((static_cast<std::uint64_t>(ids[k]) << 32) |
                       (first + k));
    };
    const EdgeId pe = tree.parent_edge[v];
    if (pe != kNoEdge) add_edge(pe);
    for (const EdgeId ce : tree.children_edges[v]) add_edge(ce);
    std::sort(keys.begin(), keys.end());

    for (const std::uint64_t key : keys) {
      const auto j = util::checked_cast<PartId>(key >> 32);
      if (plan.slots.size() == plan.slot_off.back() ||
          plan.slots.back().part != j) {
        ComponentPlan::Slot slot;
        slot.part = j;
        plan.slots.push_back(slot);
      }
      const std::size_t s = plan.slots.size() - 1;
      const std::size_t entry = key & 0xFFFFFFFFu;
      if (first_slot[entry] == ComponentPlan::kNoSlot) {
        first_slot[entry] = s;
        continue;
      }
      // v is the second endpoint to meet the entry: on its parent edge v
      // is the lower one, on a child edge the upper one.
      if (entry >= entry_off[v] && entry < entry_off[v + 1])
        plan.slots[s].parent = first_slot[entry];
      else
        plan.slots[first_slot[entry]].parent = s;
      ++links;
    }
    plan.slot_off.push_back(plan.slots.size());
  }
  LCS_CHECK(links == entry_off[n],
            "component plan has a slot without its parent slot");
  return plan;
}

void depart_by_key(std::span<QueuedItem> items,
                   std::vector<QueuedItem>& pending) {
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
  // Released items wait in a min-heap by key. An item departs only after
  // it was read into the heap, so the write position never passes the
  // read position: departures go back into `items` in departure order.
  const auto later = [](const QueuedItem& a, const QueuedItem& b) {
    return a.key > b.key;
  };
  pending.clear();
  std::size_t next = 0;
  std::size_t departed = 0;
  std::int64_t round = items.front().release;
  while (departed < items.size()) {
    if (pending.empty()) round = std::max(round, items[next].release);
    for (; next < items.size() && items[next].release <= round; ++next) {
      pending.push_back(items[next]);
      std::push_heap(pending.begin(), pending.end(), later);
    }
    std::pop_heap(pending.begin(), pending.end(), later);
    pending.back().departure = round++;
    items[departed++] = pending.back();
    pending.pop_back();
  }
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
  result.root_slot.assign(plan.slots.size(), ComponentPlan::kNoSlot);
  // Per slot: the round its node learned the word (-1 at the root, which
  // knows it from the start).
  std::vector<std::int64_t> learned(plan.slots.size(), -1);
  std::vector<QueuedItem> queue;  // the words bound down one tree edge
  std::vector<QueuedItem> pending;  // depart_by_key's scratch
  std::int64_t latest = -1;
  std::int64_t messages = 0;
  for (const NodeId v : tree.by_depth) {
    const auto i = static_cast<std::size_t>(v);
    if (plan.slot_off[i + 1] == plan.slot_off[i]) continue;
    queue.clear();
    for (std::size_t s = plan.slot_off[i]; s < plan.slot_off[i + 1]; ++s) {
      const std::size_t up = plan.slots[s].parent;
      if (up == ComponentPlan::kNoSlot) {
        result.root[s] = v;
        result.root_slot[s] = s;
        continue;
      }
      const NodeId root = result.root[up];
      result.root[s] = root;
      result.root_slot[s] = result.root_slot[up];
      queue.push_back(
          {learned[up],
           cast_key(priority, learned[up],
                    tree.depth[static_cast<std::size_t>(root)],
                    plan.slots[s].part),
           s});
    }
    depart_by_key(queue, pending);
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
  std::vector<QueuedItem> pending;  // depart_by_key's scratch
  std::int64_t latest = -1;
  std::int64_t messages = 0;
  for (auto it = tree.by_depth.rbegin(); it != tree.by_depth.rend(); ++it) {
    const auto i = static_cast<std::size_t>(*it);
    if (plan.slot_off[i + 1] == plan.slot_off[i]) continue;
    queue.clear();
    for (std::size_t s = plan.slot_off[i]; s < plan.slot_off[i + 1]; ++s) {
      const ComponentPlan::Slot& slot = plan.slots[s];
      if (!slot.has_parent()) continue;
      queue.push_back(
          {ready[s],
           cast_key(priority, ready[s], slot.parent_root_depth, slot.part),
           s});
    }
    depart_by_key(queue, pending);
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
