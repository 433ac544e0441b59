/// \file spanning_tree.h
/// The rooted spanning tree `T` that tree-restricted shortcuts live on.
///
/// `SpanningTree` aggregates the per-node local state produced by the
/// distributed BFS construction (`bfs_tree.h`): each node's parent edge,
/// depth, children, and the depths of its neighbors — exactly the
/// "distributed representation" the paper requires (Section 4.1). The
/// aggregate is centralized storage only; protocols must read just their
/// own node's entries.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/cast.h"

namespace lcs {

struct SpanningTree {
  NodeId root = kNoNode;

  /// parent_edge[v]: tree edge to parent, kNoEdge for root.
  std::vector<EdgeId> parent_edge;
  /// parent[v]: parent node id, kNoNode for root.
  std::vector<NodeId> parent;
  /// depth[v]: hop distance from root along the tree.
  std::vector<std::int32_t> depth;
  /// children_edges[v]: tree edges to children.
  std::vector<std::vector<EdgeId>> children_edges;

  /// Depth of the tree (max over nodes). For a BFS tree this is <= D, the
  /// graph diameter; the paper denotes both by D.
  std::int32_t height = 0;
  /// The nodes, shallowest first, ties by id: every node comes after its
  /// parent. The host-counted tree passes walk it top-down or bottom-up.
  std::vector<NodeId> by_depth;

  NodeId num_nodes() const { return util::checked_cast<NodeId>(depth.size()); }

  /// True if `e` is one of the tree's parent/child edges.
  bool is_tree_edge(EdgeId e) const {
    return tree_edge_flags_[static_cast<std::size_t>(e)];
  }

  /// The lower (deeper) endpoint of tree edge `e`; the edge is the parent
  /// edge of that node.
  NodeId lower_endpoint(EdgeId e) const {
    return edge_lower_[static_cast<std::size_t>(e)];
  }

  /// Populate derived lookups (tree-edge flags, lower endpoints, height,
  /// depth order). Must be called after the per-node fields are filled in.
  void finalize(const Graph& g);

 private:
  std::vector<bool> tree_edge_flags_;
  std::vector<NodeId> edge_lower_;
};

/// Check structural invariants: exactly one root, parents form a connected
/// acyclic structure spanning all nodes, depths consistent, children lists
/// match parents. Throws CheckFailure on violation.
void validate_spanning_tree(const Graph& g, const SpanningTree& tree);

/// Centralized reference BFS tree (for tests): min-id tie-breaking.
SpanningTree reference_bfs_tree(const Graph& g, NodeId root);

}  // namespace lcs
