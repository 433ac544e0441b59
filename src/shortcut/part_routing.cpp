#include "shortcut/part_routing.h"

#include <algorithm>
#include <cstdint>
#include <optional>

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

  congest::PerNode<std::uint64_t> value = init;
  for (std::size_t v = 0; v < value.size(); ++v)
    if (partition.part_of[v] == kNoPart) value[v] = kNoValue;

  // Every write lowers a value; a superstep that lowers none is the
  // flood's fixed point.
  bool changed = false;
  const auto lower = [&](NodeId v, std::uint64_t candidate) {
    std::uint64_t& mine = value[static_cast<std::size_t>(v)];
    if (candidate < mine) {
      mine = candidate;
      changed = true;
    }
  };
  const auto contribution = [&](NodeId v, PartId j) {
    return partition.part(v) == j ? value[static_cast<std::size_t>(v)]
                                  : kNoValue;
  };
  const auto min = [](std::uint64_t a, std::uint64_t b) {
    return std::min(a, b);
  };
  const auto on_aggregate = [&](NodeId v, PartId j, std::uint64_t agg) {
    if (partition.part(v) == j) lower(v, agg);
  };
  const auto cross_message = [&](NodeId v, NodeId, EdgeId) {
    return std::optional<std::uint64_t>(value[static_cast<std::size_t>(v)]);
  };
  const auto on_cross = [&](NodeId v, NodeId, EdgeId, std::uint64_t received) {
    lower(v, received);
  };
  const SuperstepHooks hooks{contribution, min,           kNoValue,
                             on_aggregate, cross_message, on_cross};
  run_to_fixed_point(runner, b_steps, [&] {
    changed = false;
    runner.run(hooks);
    return changed;
  });
  return value;
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
