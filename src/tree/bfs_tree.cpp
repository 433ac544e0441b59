#include "tree/bfs_tree.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"
#include "tree/spanning_tree.h"
#include "util/check.h"

namespace lcs {

SpanningTree build_bfs_tree(congest::Network& net, NodeId root) {
  const Graph& g = net.graph();
  const NodeId n = g.num_nodes();
  LCS_CHECK(root >= 0 && root < n, "root out of range");
  const auto at = [](NodeId v) { return static_cast<std::size_t>(v); };

  // The EXPLORE wave: each node's depth is its hop distance from the root.
  SpanningTree tree;
  tree.root = root;
  tree.depth.assign(at(n), -1);
  std::vector<NodeId> wave{root};
  wave.reserve(at(n));
  tree.depth[at(root)] = 0;
  for (std::size_t head = 0; head < wave.size(); ++head) {
    const NodeId v = wave[head];
    for (const auto& nb : g.neighbors(v)) {
      if (tree.depth[at(nb.node)] >= 0) continue;
      tree.depth[at(nb.node)] = tree.depth[at(v)] + 1;
      wave.push_back(nb.node);
    }
  }
  LCS_CHECK(wave.size() == at(n),
            "BFS did not reach every node; graph connected?");

  // Parent: the smallest edge among the explorers, all one level up.
  // Children: in ascending child id, the order their ACCEPTs arrive.
  // done_round[v], the round v sends DONE (F(v) in bfs_tree.h), starts at
  // the round its own EXPLOREs are all answered, d + 1, or at d, the round
  // after it adopts, if it sent none.
  tree.parent_edge.assign(at(n), kNoEdge);
  tree.parent.assign(at(n), kNoNode);
  tree.children_edges.resize(at(n));
  std::vector<std::int64_t> done_round(at(n));
  std::int64_t level_ends = 0;  // ends of edges inside one level: 2s
  for (NodeId v = 0; v < n; ++v) {
    const std::int32_t d = tree.depth[at(v)];
    bool explores = false;
    for (const auto& nb : g.neighbors(v)) {
      const std::int32_t nd = tree.depth[at(nb.node)];
      if (nd < d) {
        if (tree.parent_edge[at(v)] == kNoEdge ||
            nb.edge < tree.parent_edge[at(v)]) {
          tree.parent_edge[at(v)] = nb.edge;
          tree.parent[at(v)] = nb.node;
        }
        continue;
      }
      explores = true;
      if (nd == d) ++level_ends;
    }
    done_round[at(v)] = d + (explores ? 1 : 0);
    if (v != root)
      tree.children_edges[at(tree.parent[at(v)])].push_back(
          tree.parent_edge[at(v)]);
  }
  tree.finalize(g);

  // Bottom-up: a node's DONE also waits for the round its last child's
  // DONE arrives; the phase ends with the round the last DONE is
  // delivered.
  congest::PhaseStats stats;
  for (auto it = tree.by_depth.rbegin(); it != tree.by_depth.rend(); ++it) {
    const NodeId v = *it;
    if (v == root) continue;
    std::int64_t& up = done_round[at(tree.parent[at(v)])];
    up = std::max(up, done_round[at(v)] + 1);
    stats.rounds = std::max(stats.rounds, done_round[at(v)] + 2);
  }
  stats.messages = 2 * (g.num_edges() + level_ends / 2) + (n - 1);
  net.add_replayed(stats);
  return tree;
}

}  // namespace lcs
