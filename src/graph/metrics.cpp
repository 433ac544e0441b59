#include "graph/metrics.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "graph/graph.h"
#include "graph/partition.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

std::vector<std::int32_t> bfs_distances(const Graph& g, NodeId src) {
  LCS_CHECK(src >= 0 && src < g.num_nodes(), "source out of range");
  std::vector<std::int32_t> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::deque<NodeId> queue{src};
  dist[static_cast<std::size_t>(src)] = 0;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (const auto& nb : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(nb.node)] < 0) {
        dist[static_cast<std::size_t>(nb.node)] =
            dist[static_cast<std::size_t>(v)] + 1;
        queue.push_back(nb.node);
      }
    }
  }
  return dist;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::int32_t d) { return d < 0; });
}

namespace {

/// (farthest node, its distance) from src; requires connectivity.
std::pair<NodeId, std::int32_t> farthest(const Graph& g, NodeId src) {
  const auto dist = bfs_distances(g, src);
  NodeId best = src;
  std::int32_t best_d = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::int32_t d = dist[static_cast<std::size_t>(v)];
    LCS_CHECK(d >= 0, "graph must be connected for diameter computation");
    if (d > best_d) {
      best_d = d;
      best = v;
    }
  }
  return {best, best_d};
}

}  // namespace

std::int32_t diameter_exact(const Graph& g) {
  LCS_CHECK(g.num_nodes() > 0, "diameter of empty graph");
  std::int32_t best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    best = std::max(best, farthest(g, v).second);
  return best;
}

std::int32_t diameter_double_sweep(const Graph& g) {
  LCS_CHECK(g.num_nodes() > 0, "diameter of empty graph");
  const auto [far1, d1] = farthest(g, 0);
  (void)d1;
  return farthest(g, far1).second;
}

Graph subgraph(const Graph& g, std::vector<NodeId> nodes,
               std::vector<EdgeId> edges) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  const auto local = [&](NodeId v) {
    const auto it = std::lower_bound(nodes.begin(), nodes.end(), v);
    LCS_CHECK(it != nodes.end() && *it == v, "subgraph edge leaves its nodes");
    return util::checked_cast<NodeId>(it - nodes.begin());
  };
  std::vector<Graph::Edge> local_edges;
  local_edges.reserve(edges.size());
  for (const EdgeId e : edges) {
    const Graph::Edge& ed = g.edge(e);
    local_edges.push_back({local(ed.u), local(ed.v), ed.w});
  }
  return Graph(util::checked_cast<NodeId>(nodes.size()),
               std::move(local_edges));
}

namespace {

/// The exact diameter of G[P_i], given P_i's members in ascending order.
std::int32_t induced_diameter(const Graph& g, const Partition& p, PartId i,
                              std::vector<NodeId> members) {
  LCS_CHECK(!members.empty(), "part has no members");
  std::vector<EdgeId> edges;
  for (const NodeId v : members)
    for (const auto& nb : g.neighbors(v))
      if (v < nb.node && p.part(nb.node) == i) edges.push_back(nb.edge);
  const Graph part = subgraph(g, std::move(members), std::move(edges));
  LCS_CHECK(is_connected(part), "part is not connected");
  return diameter_exact(part);
}

}  // namespace

std::int32_t part_diameter_exact(const Graph& g, const Partition& p,
                                 PartId i) {
  std::vector<NodeId> members;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (p.part(v) == i) members.push_back(v);
  return induced_diameter(g, p, i, std::move(members));
}

std::int32_t max_part_diameter(const Graph& g, const Partition& p) {
  std::vector<std::vector<NodeId>> members = p.members();
  std::int32_t best = 0;
  for (PartId i = 0; i < p.num_parts; ++i) {
    std::vector<NodeId>& part = members[static_cast<std::size_t>(i)];
    best = std::max(best, induced_diameter(g, p, i, std::move(part)));
  }
  return best;
}

}  // namespace lcs
