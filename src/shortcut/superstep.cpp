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
#include "util/check.h"

namespace lcs {

namespace {

/// `0 .. count - 1` stably sorted by `key(i)`, a value below `num_keys`.
template <class Key>
std::vector<std::size_t> counting_order(std::size_t count,
                                        std::size_t num_keys, Key key) {
  std::vector<std::size_t> first(num_keys + 1, 0);
  for (std::size_t i = 0; i < count; ++i) ++first[key(i) + 1];
  for (std::size_t k = 0; k < num_keys; ++k) first[k + 1] += first[k];
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[first[key(i)]++] = i;
  return order;
}

}  // namespace

NeighborParts exchange_neighbor_parts(congest::Network& net,
                                      const Partition& partition) {
  const Graph& g = net.graph();
  LCS_CHECK(partition.part_of.size() ==
                static_cast<std::size_t>(net.num_nodes()),
            "partition sized for a different network");
  NeighborParts result;
  result.graph = &g;
  result.parts.reserve(2 * static_cast<std::size_t>(g.num_edges()));
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    for (const Graph::Neighbor& nb : g.neighbors(v))
      result.parts.push_back(partition.part(nb.node));
  const auto messages = static_cast<std::int64_t>(result.parts.size());
  net.add_replayed({messages > 0 ? 1 : 0, messages});
  return result;
}

SuperstepRunner::SuperstepRunner(congest::Network& net,
                                 const SpanningTree& tree,
                                 const Partition& partition,
                                 const ShortcutState& state,
                                 const NeighborParts& neighbor_parts)
    : net_(net), partition_(partition), state_(state) {
  const Graph& g = net.graph();
  const NodeId n = net.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  const ComponentPlan& plan = state.plan;
  LCS_CHECK(tree.depth.size() == un && tree.parent.size() == un &&
                partition.part_of.size() == un &&
                plan.slot_off.size() == un + 1,
            "superstep inputs sized for a different network");
  LCS_CHECK(neighbor_parts.graph == &g &&
                neighbor_parts.parts.size() ==
                    2 * static_cast<std::size_t>(g.num_edges()),
            "neighbor parts misaligned with the adjacency");

  // Same-part directed edges in the exchange's send order, then their
  // delivery order: receiver ascending, send order within a receiver.
  for (NodeId v = 0; v < n; ++v) {
    const auto nbs = g.neighbors(v);
    const auto parts = neighbor_parts.of(v);
    const PartId j = partition.part(v);
    if (j == kNoPart) continue;
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (parts[k] != j) continue;
      cross_.push_back(CrossEdge{v, nbs[k].node, nbs[k].edge});
    }
  }
  delivery_ = counting_order(cross_.size(), un, [&](std::size_t i) {
    return static_cast<std::size_t>(cross_[i].to);
  });
  cross_word_.resize(cross_.size());

  // Every superstep's casts repeat the schedules the representation phase
  // counted on this plan: one message per parent-edge slot each.
  const auto parent_slots = std::count_if(
      plan.slots.begin(), plan.slots.end(),
      [](const ComponentPlan::Slot& slot) { return slot.has_parent(); });
  LCS_CHECK(state.broadcast.messages == parent_slots &&
                state.convergecast.messages == parent_slots,
            "shortcut state's casts are not one message per parent-edge "
            "slot");

  // A part member with no slot for its part is a singleton component.
  for (NodeId v = 0; v < n; ++v) {
    const PartId j = partition.part(v);
    if (j != kNoPart && plan.slot_index(v, j) == plan.slots.size())
      singletons_.push_back(v);
  }
  acc_.resize(plan.slots.size());
}

void SuperstepRunner::repeat_last(std::int64_t count) {
  LCS_CHECK(count >= 0, "cannot repeat a superstep a negative number of times");
  LCS_CHECK(last_stats_.has_value(), "no superstep to repeat");
  net_.add_replayed(
      {last_stats_->rounds * count, last_stats_->messages * count});
}

}  // namespace lcs
