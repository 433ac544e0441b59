#include "apps/aggregate.h"

#include <optional>
#include <utility>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/part_routing.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"

namespace lcs {

namespace {

/// The aggregator's exchange round, charged on the array the construction
/// learned, then its runner: the one the construction handed over, or one
/// built on the result's state.
SuperstepRunner take_runner(congest::Network& net, const SpanningTree& tree,
                            const Partition& partition,
                            const ShortcutState& state,
                            const NeighborParts& neighbor_parts,
                            std::optional<SuperstepRunner> handed) {
  charge_exchange(net, neighbor_parts);
  if (handed.has_value()) return *std::move(handed);
  return SuperstepRunner(net, tree, partition, state, neighbor_parts);
}

}  // namespace

PartAggregator::PartAggregator(congest::Network& net, const SpanningTree& tree,
                               const Partition& partition,
                               FindShortcutParams params)
    : PartAggregator(net, tree, partition,
                     find_routable_shortcut(net, tree, partition, params)) {}

PartAggregator::PartAggregator(congest::Network& net, const SpanningTree& tree,
                               const Partition& partition,
                               RoutableShortcut routable)
    : found_(std::move(routable.found)),
      neighbor_parts_(std::move(routable.neighbor_parts)),
      b_steps_(3 * found_.stats.used_b),
      runner_(take_runner(net, tree, partition, found_.state, neighbor_parts_,
                          std::move(routable.runner))) {}

congest::PerNode<std::uint64_t> PartAggregator::min(
    const congest::PerNode<std::uint64_t>& values) {
  return part_min_flood(runner_, b_steps_, values);
}

congest::PerNode<NodeId> PartAggregator::leaders() {
  return elect_part_leaders(runner_, b_steps_);
}

congest::PerNode<std::uint64_t> PartAggregator::broadcast(
    const congest::PerNode<std::uint64_t>& value_at_source) {
  return part_min_flood(runner_, b_steps_, value_at_source);
}

}  // namespace lcs
