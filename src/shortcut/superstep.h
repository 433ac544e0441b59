/// \file superstep.h
/// The *supergraph superstep*: the communication step underlying Theorem 2
/// and Lemmas 3/6.
///
/// The paper views each part's shortcut subgraph as a supergraph whose
/// supernodes are block components. One algorithmic step on the supergraph
/// ("supernodes talk to their neighbors, then internally agree") costs
/// O(D + c) CONGEST rounds:
///   1. one round in which part members exchange a word with their same-part
///      graph neighbors (the G[Pi] edges that connect adjacent supernodes —
///      these are disjoint across parts, so never congested),
///   2. convergecast one word from all nodes of each block component to its
///      root (Lemma 2),
///   3. broadcast the aggregate back to all nodes of the component.
/// Running the cross-edge exchange *first* guarantees that all nodes of a
/// component end every superstep agreeing on the component state (the final
/// word every node saw is the component aggregate).
/// Singleton components short-circuit steps 2–3 locally (zero rounds).
///
/// Verification and all part-level primitives are loops of this superstep
/// with different hooks, all over one fixed shortcut. Steps 2–3 therefore
/// run on the routing plan the shortcut's state already carries
/// (`ShortcutState::plan`, tree_routing.h): a superstep builds no component
/// topology, and its root aggregates sit in one flat array with an entry per
/// rooted component, each written and read only by its root node.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// Per-node knowledge cached across supersteps: each node's list of
/// neighbors' part ids (learned in a single setup round).
struct NeighborParts {
  /// Aligned with Graph::neighbors(v).
  congest::PerNode<std::vector<PartId>> of;
};

/// One-round exchange in which every node tells its neighbors its part id.
NeighborParts exchange_neighbor_parts(congest::Network& net,
                                      const Partition& partition);

struct SuperstepHooks {
  /// Word fed by node v into the aggregate of its part-j component. Called
  /// for every node of the component (relays included); return `identity`
  /// to contribute nothing.
  std::function<std::uint64_t(NodeId v, PartId j)> contribution;
  /// Associative + commutative combiner and its identity element.
  std::function<std::uint64_t(std::uint64_t, std::uint64_t)> combine;
  std::uint64_t identity = 0;
  /// Fires at every node of the component with the component-wide aggregate.
  std::function<void(NodeId v, PartId j, std::uint64_t agg)> on_aggregate;
  /// Cross-edge message from part member v to same-part neighbor w over
  /// edge e; return std::nullopt to stay silent. May be null to skip the
  /// exchange round entirely.
  std::function<std::optional<std::uint64_t>(NodeId v, NodeId w, EdgeId e)>
      cross_message;
  /// Delivery of a cross-edge message.
  std::function<void(NodeId v, NodeId from, EdgeId e, std::uint64_t value)>
      on_cross;
};

/// Execute one superstep. Rounds are accounted in `net`; O(D + c) per call.
void run_superstep(congest::Network& net, const SpanningTree& tree,
                   const Partition& partition, const ShortcutState& state,
                   const NeighborParts& neighbor_parts,
                   const SuperstepHooks& hooks);

}  // namespace lcs
