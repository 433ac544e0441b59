#include "shortcut/quality.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "graph/graph.h"
#include "graph/partition.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

std::vector<bool> bfs_forest_edges(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<bool> forest(static_cast<std::size_t>(g.num_edges()), false);
  std::vector<bool> visited(n, false);
  std::deque<NodeId> queue;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (visited[static_cast<std::size_t>(root)]) continue;
    visited[static_cast<std::size_t>(root)] = true;
    queue.push_back(root);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const auto& nb : g.neighbors(v)) {
        if (visited[static_cast<std::size_t>(nb.node)]) continue;
        visited[static_cast<std::size_t>(nb.node)] = true;
        forest[static_cast<std::size_t>(nb.edge)] = true;
        queue.push_back(nb.node);
      }
    }
  }
  return forest;
}

ForestQuality forest_part_quality(const Graph& g,
                                  const std::vector<PartId>& part_of,
                                  const std::vector<bool>& forest_edge) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  LCS_CHECK(part_of.size() == n, "part labeling size mismatch");
  LCS_CHECK(forest_edge.size() == static_cast<std::size_t>(g.num_edges()),
            "forest flag size mismatch");

  // One BFS sweep over the flagged edges: component ids (in discovery
  // order), parent node/edge per node, and per-component node lists in BFS
  // order (so subtree counts fold in one reverse pass).
  std::vector<std::int32_t> comp(n, -1);
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<EdgeId> parent_edge(n, kNoEdge);
  std::vector<std::vector<NodeId>> comp_order;
  std::int64_t flagged = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (forest_edge[static_cast<std::size_t>(e)]) ++flagged;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (comp[static_cast<std::size_t>(root)] >= 0) continue;
    const auto c = util::checked_cast<std::int32_t>(comp_order.size());
    comp_order.emplace_back();
    auto& order = comp_order.back();
    comp[static_cast<std::size_t>(root)] = c;
    order.push_back(root);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId v = order[head];
      for (const auto& nb : g.neighbors(v)) {
        if (!forest_edge[static_cast<std::size_t>(nb.edge)]) continue;
        if (comp[static_cast<std::size_t>(nb.node)] >= 0) continue;
        comp[static_cast<std::size_t>(nb.node)] = c;
        parent[static_cast<std::size_t>(nb.node)] = v;
        parent_edge[static_cast<std::size_t>(nb.node)] = nb.edge;
        order.push_back(nb.node);
      }
    }
  }
  LCS_CHECK(flagged == static_cast<std::int64_t>(n) -
                           static_cast<std::int64_t>(comp_order.size()),
            "forest_edge flags contain a cycle");

  // Group part members by (part, component): each group spans one Steiner
  // subtree. Groups are processed in (part id, discovery order of the
  // component) order, so every output is a pure function of the inputs.
  PartId num_parts = 0;
  for (const PartId p : part_of) num_parts = std::max(num_parts, p + 1);
  std::vector<std::vector<NodeId>> part_members(
      static_cast<std::size_t>(num_parts));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const PartId p = part_of[static_cast<std::size_t>(v)];
    if (p == kNoPart) continue;
    LCS_CHECK(p >= 0, "negative part label that is not kNoPart");
    part_members[static_cast<std::size_t>(p)].push_back(v);
  }

  std::vector<std::int32_t> load(static_cast<std::size_t>(g.num_edges()), 0);
  std::vector<std::int32_t> cnt(n, 0);
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> steiner_adj(n);
  std::vector<NodeId> touched;
  std::vector<std::int32_t> dist(n, -1);
  ForestQuality q;

  auto farthest_in_steiner = [&](NodeId src) {
    // BFS over the group's Steiner edges; returns (node, hops) of the
    // farthest node (first encountered at max depth — deterministic).
    std::deque<NodeId> queue{src};
    std::vector<NodeId> seen{src};
    dist[static_cast<std::size_t>(src)] = 0;
    NodeId far = src;
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const auto& [to, via] : steiner_adj[static_cast<std::size_t>(v)]) {
        if (dist[static_cast<std::size_t>(to)] >= 0) continue;
        dist[static_cast<std::size_t>(to)] =
            dist[static_cast<std::size_t>(v)] + 1;
        if (dist[static_cast<std::size_t>(to)] >
            dist[static_cast<std::size_t>(far)])
          far = to;
        queue.push_back(to);
        seen.push_back(to);
      }
    }
    const std::int32_t d = dist[static_cast<std::size_t>(far)];
    for (const NodeId v : seen) dist[static_cast<std::size_t>(v)] = -1;
    return std::pair<NodeId, std::int32_t>{far, d};
  };

  for (const auto& members : part_members) {
    if (members.size() < 2) continue;
    // Split the part's members by forest component; fragments with a single
    // member span no edges.
    for (const NodeId v : members) ++cnt[static_cast<std::size_t>(v)];
    // Per component containing members, fold subtree counts in reverse BFS
    // order and collect Steiner edges (0 < below < group size).
    std::vector<std::int32_t> comps;
    std::vector<std::int32_t> group_size;
    for (const NodeId v : members) {
      const std::int32_t c = comp[static_cast<std::size_t>(v)];
      bool known = false;
      for (std::size_t i = 0; i < comps.size(); ++i) {
        if (comps[i] == c) {
          ++group_size[i];
          known = true;
          break;
        }
      }
      if (!known) {
        comps.push_back(c);
        group_size.push_back(1);
      }
    }
    for (std::size_t ci = 0; ci < comps.size(); ++ci) {
      if (group_size[ci] < 2) continue;
      const auto& order = comp_order[static_cast<std::size_t>(comps[ci])];
      touched.clear();
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId v = *it;
        const std::int32_t below = cnt[static_cast<std::size_t>(v)];
        if (below > 0 && below < group_size[ci] &&
            parent[static_cast<std::size_t>(v)] != kNoNode) {
          const EdgeId e = parent_edge[static_cast<std::size_t>(v)];
          const NodeId p = parent[static_cast<std::size_t>(v)];
          ++load[static_cast<std::size_t>(e)];
          q.congestion = std::max(q.congestion, load[static_cast<std::size_t>(e)]);
          steiner_adj[static_cast<std::size_t>(v)].push_back({p, e});
          steiner_adj[static_cast<std::size_t>(p)].push_back({v, e});
          touched.push_back(v);
          touched.push_back(p);
        }
        if (parent[static_cast<std::size_t>(v)] != kNoNode)
          cnt[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])] +=
              below;
      }
      if (!touched.empty()) {
        // Steiner subtree diameter by double BFS from any member of the
        // fragment (the first in `members` order with this component id).
        NodeId src = kNoNode;
        for (const NodeId v : members) {
          if (comp[static_cast<std::size_t>(v)] == comps[ci]) {
            src = v;
            break;
          }
        }
        const auto [far, d1] = farthest_in_steiner(src);
        (void)d1;
        q.dilation = std::max(q.dilation, farthest_in_steiner(far).second);
        for (const NodeId v : touched)
          steiner_adj[static_cast<std::size_t>(v)].clear();
      }
      // The reverse fold left member counts accumulated along root paths;
      // clear by re-walking the component (cheap, already O(comp)).
      for (const NodeId v : order) cnt[static_cast<std::size_t>(v)] = 0;
    }
    // Components that held members but were skipped (single-member
    // fragments) still carry their +1 marks; clear them too.
    for (const NodeId v : members) cnt[static_cast<std::size_t>(v)] = 0;
  }
  return q;
}

std::vector<EdgeId> steiner_subtree_edges(const Graph& g,
                                          const SpanningTree& tree,
                                          const std::vector<NodeId>& members) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  LCS_CHECK(tree.by_depth.size() == n,
            "Steiner query tree/graph size mismatch");
  std::vector<std::int32_t> cnt(n, 0);
  for (const NodeId v : members) {
    LCS_CHECK(v >= 0 && static_cast<std::size_t>(v) < n,
              "Steiner member out of range");
    LCS_CHECK(cnt[static_cast<std::size_t>(v)] == 0,
              "duplicate Steiner member " + std::to_string(v));
    cnt[static_cast<std::size_t>(v)] = 1;
  }
  const auto total = util::checked_cast<std::int32_t>(members.size());
  if (total < 2) return {};

  // Fold member counts up the tree, deepest nodes first: the edge above v
  // is in the Steiner subtree iff v's subtree holds some but not all
  // members.
  std::vector<EdgeId> edges;
  for (auto it = tree.by_depth.rbegin(); it != tree.by_depth.rend(); ++it) {
    const NodeId v = *it;
    if (v == tree.root) continue;
    const std::int32_t below = cnt[static_cast<std::size_t>(v)];
    if (below > 0 && below < total)
      edges.push_back(tree.parent_edge[static_cast<std::size_t>(v)]);
    cnt[static_cast<std::size_t>(
        tree.parent[static_cast<std::size_t>(v)])] += below;
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

}  // namespace lcs
