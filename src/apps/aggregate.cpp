#include "apps/aggregate.h"

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/part_routing.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"

namespace lcs {

PartAggregator::PartAggregator(congest::Network& net, const SpanningTree& tree,
                               const Partition& partition,
                               FindShortcutParams params)
    : routable_(find_routable_shortcut(net, tree, partition, params)),
      b_steps_(3 * routable_.found.stats.used_b) {
  charge_exchange(net, routable_.neighbor_parts);
}

congest::PerNode<std::uint64_t> PartAggregator::min(
    const congest::PerNode<std::uint64_t>& values) {
  return part_min_flood(routable_.runner, b_steps_, values);
}

congest::PerNode<NodeId> PartAggregator::leaders() {
  return elect_part_leaders(routable_.runner, b_steps_);
}

congest::PerNode<std::uint64_t> PartAggregator::broadcast(
    const congest::PerNode<std::uint64_t>& value_at_source) {
  return part_min_flood(routable_.runner, b_steps_, value_at_source);
}

}  // namespace lcs
