#include "shortcut/superstep.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

NeighborParts exchange_neighbor_parts(congest::Network& net,
                                      const Partition& partition) {
  NeighborParts result = neighbor_parts_of(net.graph(), partition);
  charge_exchange(net, result);
  return result;
}

NeighborParts neighbor_parts_of(const Graph& g, const Partition& partition) {
  LCS_CHECK(partition.part_of.size() ==
                static_cast<std::size_t>(g.num_nodes()),
            "partition sized for a different network");
  NeighborParts result;
  result.graph = &g;
  result.parts.reserve(2 * static_cast<std::size_t>(g.num_edges()));
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (const Graph::Neighbor& nb : g.neighbors(v))
      result.parts.push_back(partition.part(nb.node));
  return result;
}

void charge_exchange(congest::Network& net, const NeighborParts& parts) {
  LCS_CHECK(parts.graph == &net.graph(),
            "neighbor parts learned on a different graph");
  const auto messages = static_cast<std::int64_t>(parts.parts.size());
  net.add_replayed({messages > 0 ? 1 : 0, messages});
}

SuperstepRunner::SuperstepRunner(congest::Network& net,
                                 const SpanningTree& tree,
                                 const Partition& partition,
                                 const ShortcutState& state,
                                 const NeighborParts& neighbor_parts)
    : net_(net),
      partition_(partition),
      broadcast_(state.broadcast),
      convergecast_(state.convergecast) {
  const Graph& g = net.graph();
  const NodeId n = net.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  const ComponentPlan& plan = state.plan;
  LCS_CHECK(tree.depth.size() == un && tree.parent.size() == un &&
                partition.part_of.size() == un &&
                state.own_block_root.size() == un &&
                state.own_root_slot.size() == un &&
                plan.slot_off.size() == un + 1,
            "superstep inputs sized for a different network");
  LCS_CHECK(neighbor_parts.graph == &g &&
                neighbor_parts.parts.size() ==
                    2 * static_cast<std::size_t>(g.num_edges()),
            "neighbor parts misaligned with the adjacency");

  // Every superstep's casts repeat the schedules the representation phase
  // counted on this plan: one message per parent-edge slot each.
  const auto parent_slots = std::count_if(
      plan.slots.begin(), plan.slots.end(),
      [](const ComponentPlan::Slot& slot) { return slot.has_parent(); });
  LCS_CHECK(state.broadcast.messages == parent_slots &&
                state.convergecast.messages == parent_slots,
            "shortcut state's casts are not one message per parent-edge "
            "slot");

  // Supernodes in order of their smallest member. A block component's
  // members share its root's slot for their part (`own_root_slot`); a
  // member without one is a supernode of its own.
  supernode_.assign(un, kNoSupernode);
  std::vector<Supernode> of_root_slot(plan.slots.size(), kNoSupernode);
  const auto add_supernode = [&] {
    sends_.push_back(0);
    return util::checked_cast<Supernode>(sends_.size() - 1);
  };
  for (NodeId v = 0; v < n; ++v) {
    const PartId j = partition.part(v);
    if (j == kNoPart) continue;
    const auto i = static_cast<std::size_t>(v);
    const std::size_t root_slot = state.own_root_slot[i];
    if (root_slot == ComponentPlan::kNoSlot) {
      supernode_[i] = add_supernode();
      continue;
    }
    LCS_CHECK(root_slot < plan.slots.size() &&
                  plan.slots[root_slot].part == j &&
                  !plan.slots[root_slot].has_parent(),
              "a root slot names no component root of the part");
    if (of_root_slot[root_slot] == kNoSupernode)
      of_root_slot[root_slot] = add_supernode();
    supernode_[i] = of_root_slot[root_slot];
  }

  // Same-part directed edges: counted per sending supernode, and kept as
  // links when they leave it.
  for (NodeId v = 0; v < n; ++v) {
    const Supernode from_super = supernode(v);
    if (from_super == kNoSupernode) continue;
    const auto nbs = g.neighbors(v);
    const auto parts = neighbor_parts.of(v);
    const PartId j = partition.part(v);
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (parts[k] != j) continue;
      ++sends_[from_super];
      const Supernode to_super = supernode(nbs[k].node);
      if (to_super != from_super)
        links_.push_back(
            Link{from_super, to_super, v, nbs[k].node, nbs[k].edge});
    }
  }
  for (const std::int64_t s : sends_) all_sends_ += s;
}

void SuperstepRunner::charge(std::int64_t words) {
  LCS_CHECK(words >= 0, "a superstep sends no negative number of words");
  last_stats_ = congest::PhaseStats{
      convergecast_.rounds + broadcast_.rounds + (words > 0 ? 1 : 0),
      convergecast_.messages + broadcast_.messages + words};
  net_.add_replayed(*last_stats_);
}

bool SuperstepRunner::min_step(std::vector<std::uint64_t>& value) {
  LCS_CHECK(value.size() == num_supernodes(), "one value per supernode");
  before_ = value;
  bool fell = false;
  for (const Link& link : links_) {
    const std::uint64_t word = before_[link.from_super];
    if (word < value[link.to_super]) {
      value[link.to_super] = word;
      fell = true;
    }
  }
  charge(all_sends_);
  return fell;
}

void SuperstepRunner::repeat_last(std::int64_t count) {
  LCS_CHECK(count >= 0, "cannot repeat a superstep a negative number of times");
  LCS_CHECK(last_stats_.has_value(), "no superstep to repeat");
  net_.add_replayed(
      {last_stats_->rounds * count, last_stats_->messages * count});
}

}  // namespace lcs
