#include "shortcut/part_routing.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

congest::PerNode<std::uint64_t> part_min_flood(
    SuperstepRunner& runner, std::int32_t b_steps,
    const congest::PerNode<std::uint64_t>& init) {
  const Partition& partition = runner.partition();
  LCS_CHECK(b_steps >= 1, "need at least one superstep");
  LCS_CHECK(init.size() == partition.part_of.size(),
            "one value per node required");
  const NodeId n = util::checked_cast<NodeId>(init.size());

  // The first superstep: every member sends its own value, and each
  // supernode takes the smallest of its members' values and the words
  // that reach them over links. Words inside a supernode carry values its
  // own minimum already covers.
  std::vector<std::uint64_t> value(runner.num_supernodes(), kNoValue);
  for (NodeId v = 0; v < n; ++v) {
    const SuperstepRunner::Supernode s = runner.supernode(v);
    if (s != SuperstepRunner::kNoSupernode)
      value[s] = std::min(value[s], init[static_cast<std::size_t>(v)]);
  }
  for (const SuperstepRunner::Link& link : runner.links()) {
    std::uint64_t& mine = value[link.to_super];
    mine = std::min(mine, init[static_cast<std::size_t>(link.from)]);
  }
  runner.charge(runner.all_sends());

  // Every member now holds its supernode's value; the rest are supernode
  // supersteps, up to the flood's fixed point.
  run_to_fixed_point(runner, b_steps - 1,
                     [&] { return runner.min_step(value); });

  congest::PerNode<std::uint64_t> result(init.size(), kNoValue);
  for (NodeId v = 0; v < n; ++v) {
    const SuperstepRunner::Supernode s = runner.supernode(v);
    if (s != SuperstepRunner::kNoSupernode)
      result[static_cast<std::size_t>(v)] = value[s];
  }
  return result;
}

congest::PerNode<std::uint64_t> part_min_flood(
    congest::Network& net, const SpanningTree& tree, const Partition& partition,
    const ShortcutState& state, const NeighborParts& neighbor_parts,
    std::int32_t b_steps, const congest::PerNode<std::uint64_t>& init) {
  SuperstepRunner runner(net, tree, partition, state, neighbor_parts);
  return part_min_flood(runner, b_steps, init);
}

congest::PerNode<NodeId> elect_part_leaders(SuperstepRunner& runner,
                                            std::int32_t b_steps) {
  const Partition& partition = runner.partition();
  const std::size_t n = partition.part_of.size();
  congest::PerNode<std::uint64_t> ids(n);
  for (std::size_t v = 0; v < n; ++v) ids[v] = static_cast<std::uint64_t>(v);
  const auto mins = part_min_flood(runner, b_steps, ids);
  congest::PerNode<NodeId> leaders(n, kNoNode);
  for (std::size_t v = 0; v < n; ++v) {
    if (partition.part_of[v] != kNoPart)
      leaders[v] = util::checked_cast<NodeId>(mins[v]);
  }
  return leaders;
}

congest::PerNode<NodeId> elect_part_leaders(
    congest::Network& net, const SpanningTree& tree, const Partition& partition,
    const ShortcutState& state, const NeighborParts& neighbor_parts,
    std::int32_t b_steps) {
  SuperstepRunner runner(net, tree, partition, state, neighbor_parts);
  return elect_part_leaders(runner, b_steps);
}

congest::PerNode<std::uint64_t> part_broadcast(
    congest::Network& net, const SpanningTree& tree, const Partition& partition,
    const ShortcutState& state, const NeighborParts& neighbor_parts,
    std::int32_t b_steps,
    const congest::PerNode<std::uint64_t>& value_at_source) {
  return part_min_flood(net, tree, partition, state, neighbor_parts, b_steps,
                        value_at_source);
}

}  // namespace lcs
