/// \file components.h
/// Distributed connected components of a *logical subgraph* over the intact
/// physical network — the primitive behind connectivity verification and
/// sampling-based min-cut (both members of the Ω̃(√n + D) problem family
/// the paper's framework accelerates).
///
/// The algorithm is unweighted Boruvka: the shortcut Boruvka loop that MST
/// also runs (mst/boruvka_common.h), with the smallest-id alive outgoing
/// edge as each node's candidate. Each phase builds a `PartAggregator` for
/// the current fragments (FindShortcut with doubling, then the fragment-id
/// exchange), min-floods the candidates and broadcasts the star-merge
/// proposals on its one runner, merges, and ends with a tree OR.
/// Communication may use every physical edge; only candidate edges are
/// filtered to `edge_alive`.
#pragma once

#include "congest/network.h"
#include "congest/process.h"
#include "graph/partition.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct ComponentsResult {
  /// Component label per node; two nodes share a label iff they are
  /// connected by alive edges.
  congest::PerNode<PartId> label;
  std::int32_t phases = 0;
  std::int64_t rounds = 0;
};

/// Labels the components of the subgraph restricted to `edge_alive`.
/// `seed` drives the shortcut construction and merge coins.
ComponentsResult distributed_components(congest::Network& net,
                                        const SpanningTree& tree,
                                        const std::vector<bool>& edge_alive,
                                        std::uint64_t seed = 1);

}  // namespace lcs
