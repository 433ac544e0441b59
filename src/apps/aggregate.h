/// \file aggregate.h
/// The user-facing embodiment of the paper's programming model: "a graph is
/// partitioned into disjoint connected parts; compute a simple function for
/// each part in isolation" (Section 1.2).
///
/// `PartAggregator` constructs a tree-restricted shortcut once (FindShortcut
/// with Appendix-A doubling — no parameters needed), then runs the one
/// round in which every node learns its neighbors' parts, and then serves
/// part-wise operations, each in O(b(D + c)) rounds:
///   * min / leader election over each part,
///   * broadcast from a designated member to the whole part.
/// Every operation runs 3·b supersteps (b = the block parameter the doubling
/// settled on) on one `SuperstepRunner` built with the aggregator, so the
/// shortcut's supergraph (its supernodes and the links between them) is
/// built once for all of them.
/// This is the API the examples and applications build on; the Boruvka
/// loop behind MST and components (mst/boruvka_common.h) builds one per
/// phase.
#pragma once

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"

namespace lcs {

class PartAggregator {
 public:
  /// Builds the shortcut for (tree, partition) via doubling, then exchanges
  /// part ids with the neighbors. All rounds are accounted in `net`;
  /// `construction_stats()` has the doubling's breakdown. Holds references
  /// to `net`, `tree` and `partition`, which must outlive it and must not
  /// change while it is in use.
  PartAggregator(congest::Network& net, const SpanningTree& tree,
                 const Partition& partition,
                 FindShortcutParams params = {});

  /// The runner refers to this aggregator's own shortcut state.
  PartAggregator(const PartAggregator&) = delete;
  PartAggregator& operator=(const PartAggregator&) = delete;

  /// Minimum of `values` over each part, known to every member afterwards.
  /// Non-member entries are ignored; returns kNoValue for part-less nodes.
  congest::PerNode<std::uint64_t> min(
      const congest::PerNode<std::uint64_t>& values);

  /// Smallest node id of each part, known to every member.
  congest::PerNode<NodeId> leaders();

  /// Flood `value_at_source` (< kNoValue only at source members).
  congest::PerNode<std::uint64_t> broadcast(
      const congest::PerNode<std::uint64_t>& value_at_source);

  const FindShortcutStats& construction_stats() const { return found_.stats; }
  const ShortcutState& state() const { return found_.state; }
  /// The neighbors' parts learned by the construction's exchange round.
  const NeighborParts& neighbor_parts() const { return neighbor_parts_; }

 private:
  FindShortcutResult found_;
  NeighborParts neighbor_parts_;
  std::int32_t b_steps_;
  SuperstepRunner runner_;
};

}  // namespace lcs
