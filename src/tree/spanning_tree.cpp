#include "tree/spanning_tree.h"

#include <algorithm>
#include <deque>

#include "graph/graph.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

void SpanningTree::finalize(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  LCS_CHECK(parent_edge.size() == n && parent.size() == n &&
                depth.size() == n && children_edges.size() == n,
            "per-node fields incomplete");
  tree_edge_flags_.assign(static_cast<std::size_t>(g.num_edges()), false);
  edge_lower_.assign(static_cast<std::size_t>(g.num_edges()), kNoNode);
  height = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    height = std::max(height, depth[static_cast<std::size_t>(v)]);
    const EdgeId pe = parent_edge[static_cast<std::size_t>(v)];
    if (pe != kNoEdge) {
      tree_edge_flags_[static_cast<std::size_t>(pe)] = true;
      edge_lower_[static_cast<std::size_t>(pe)] = v;
    }
  }
  // A counting sort by depth, stable in node id.
  std::vector<std::size_t> first(util::checked_usize(height) + 2, 0);
  for (const std::int32_t d : depth) ++first[util::checked_usize(d) + 1];
  for (std::size_t d = 1; d < first.size(); ++d) first[d] += first[d - 1];
  by_depth.assign(n, kNoNode);
  for (std::size_t v = 0; v < n; ++v)
    by_depth[first[util::checked_usize(depth[v])]++] =
        util::checked_cast<NodeId>(v);
}

void validate_spanning_tree(const Graph& g, const SpanningTree& tree) {
  const NodeId n = g.num_nodes();
  LCS_CHECK(tree.num_nodes() == n, "tree size mismatch");
  LCS_CHECK(tree.root >= 0 && tree.root < n, "invalid root");
  LCS_CHECK(tree.parent[static_cast<std::size_t>(tree.root)] == kNoNode &&
                tree.parent_edge[static_cast<std::size_t>(tree.root)] ==
                    kNoEdge &&
                tree.depth[static_cast<std::size_t>(tree.root)] == 0,
            "root must have no parent and depth 0");

  std::size_t tree_edge_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    const EdgeId pe = tree.parent_edge[static_cast<std::size_t>(v)];
    const NodeId pv = tree.parent[static_cast<std::size_t>(v)];
    LCS_CHECK(pe != kNoEdge && pv != kNoNode, "non-root node without parent");
    LCS_CHECK(g.other_endpoint(pe, v) == pv, "parent edge/node mismatch");
    LCS_CHECK(tree.depth[static_cast<std::size_t>(v)] ==
                  tree.depth[static_cast<std::size_t>(pv)] + 1,
              "depth must be parent depth + 1");
    ++tree_edge_count;
  }
  LCS_CHECK(tree_edge_count == static_cast<std::size_t>(n) - 1 || n == 0,
            "wrong number of tree edges");

  // Children lists match parents exactly.
  std::size_t child_links = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const EdgeId ce : tree.children_edges[static_cast<std::size_t>(v)]) {
      const NodeId c = g.other_endpoint(ce, v);
      LCS_CHECK(tree.parent[static_cast<std::size_t>(c)] == v &&
                    tree.parent_edge[static_cast<std::size_t>(c)] == ce,
                "children list inconsistent with parent pointers");
      ++child_links;
    }
  }
  LCS_CHECK(child_links == tree_edge_count, "children lists incomplete");

  // Reachability: following parents must reach the root (acyclic by depths).
  for (NodeId v = 0; v < n; ++v) {
    NodeId cur = v;
    std::int32_t steps = 0;
    while (cur != tree.root) {
      cur = tree.parent[static_cast<std::size_t>(cur)];
      LCS_CHECK(cur != kNoNode, "parent chain broken");
      LCS_CHECK(++steps <= n, "parent chain cycles");
    }
  }
}

SpanningTree reference_bfs_tree(const Graph& g, NodeId root) {
  const NodeId n = g.num_nodes();
  LCS_CHECK(root >= 0 && root < n, "root out of range");

  SpanningTree tree;
  tree.root = root;
  tree.parent_edge.assign(static_cast<std::size_t>(n), kNoEdge);
  tree.parent.assign(static_cast<std::size_t>(n), kNoNode);
  tree.depth.assign(static_cast<std::size_t>(n), -1);
  tree.children_edges.resize(static_cast<std::size_t>(n));

  std::deque<NodeId> queue{root};
  tree.depth[static_cast<std::size_t>(root)] = 0;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    // Scan neighbors in increasing node-id order for deterministic parents.
    std::vector<Graph::Neighbor> nbs(g.neighbors(v).begin(),
                                     g.neighbors(v).end());
    std::sort(nbs.begin(), nbs.end(),
              [](const auto& a, const auto& b) { return a.node < b.node; });
    for (const auto& nb : nbs) {
      if (tree.depth[static_cast<std::size_t>(nb.node)] < 0) {
        tree.depth[static_cast<std::size_t>(nb.node)] =
            tree.depth[static_cast<std::size_t>(v)] + 1;
        tree.parent[static_cast<std::size_t>(nb.node)] = v;
        tree.parent_edge[static_cast<std::size_t>(nb.node)] = nb.edge;
        tree.children_edges[static_cast<std::size_t>(v)].push_back(nb.edge);
        queue.push_back(nb.node);
      }
    }
  }
  for (NodeId v = 0; v < n; ++v)
    LCS_CHECK(tree.depth[static_cast<std::size_t>(v)] >= 0,
              "graph must be connected");
  tree.finalize(g);
  return tree;
}

}  // namespace lcs
