/// \file quality.h
/// Steiner subtrees on trees and forests, for the shortcut backends and
/// the dynamic churn metrics.
///
/// A set of member nodes on a (spanning) tree spans a unique *Steiner
/// subtree*: the minimal subtree connecting all members. Two layers use it:
///
///  * the shortcut backends (src/shortcut/backend/) that construct each
///    part's `Hi` as a Steiner subtree on some spanning tree need the edge
///    set itself (`steiner_subtree_edges`);
///  * the dynamic churn metrics (src/dynamic/churn.h), and only they, score
///    a maintained spanning forest as a routing skeleton by the congestion
///    × dilation of the per-part Steiner subtrees (`forest_part_quality`,
///    with `bfs_forest_edges` as the fresh baseline).
///
/// A shortcut's own congestion and dilation are in shortcut/shortcut.h;
/// the part-subgraph diameters its dilation takes are measured by
/// graph/metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// Deterministic BFS spanning forest of `g` (the "fresh construction"
/// baseline for dynamically maintained trees): each component is rooted at
/// its minimum node id and explored in adjacency order. Returns one flag per
/// edge id; flagged edges form a spanning forest.
std::vector<bool> bfs_forest_edges(const Graph& g);

/// Shortcut-style quality of a spanning forest as a routing skeleton for a
/// partition (the dynamic counterpart of `congestion` × `dilation_estimate`
/// in shortcut/shortcut.h, measured on an arbitrary tree structure instead
/// of a constructed shortcut):
///  * for every part, its members inside one forest component span a
///    *Steiner subtree* (the minimal subtree connecting them — under churn
///    a part may straddle several components, each fragment spanning its
///    own subtree);
///  * `congestion` = max over forest edges of the number of such subtrees
///    containing the edge;
///  * `dilation` = max over subtrees of the subtree diameter in hops.
/// Both are 0 when no part has two members in a common component.
struct ForestQuality {
  std::int32_t congestion = 0;
  std::int32_t dilation = 0;
  /// congestion * dilation — the figure of merit the paper's framework
  /// bounds (rounds ~ congestion + dilation; the product is the standard
  /// single-number summary used across the benches).
  std::int64_t product() const {
    return static_cast<std::int64_t>(congestion) *
           static_cast<std::int64_t>(dilation);
  }
  friend bool operator==(const ForestQuality&, const ForestQuality&) = default;
};

/// Requires: `forest_edge[e]` flags form a forest (no cycles — diagnosed),
/// `part_of[v]` in [-1, num parts). O(parts × n + m).
ForestQuality forest_part_quality(const Graph& g,
                                  const std::vector<PartId>& part_of,
                                  const std::vector<bool>& forest_edge);

/// Edge ids of the unique Steiner subtree of `members` on `tree` — the
/// minimal subtree of the spanning tree containing every member. Sorted
/// ascending; empty when fewer than two members. Duplicate or out-of-range
/// members are diagnosed. `tree` must be finalized (its `by_depth` order
/// is folded bottom-up). O(n).
[[nodiscard]] std::vector<EdgeId> steiner_subtree_edges(
    const Graph& g, const SpanningTree& tree,
    const std::vector<NodeId>& members);

}  // namespace lcs
