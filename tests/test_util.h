/// \file test_util.h
/// Shared helpers for the shortcut-module tests: distributed setup
/// boilerplate and centralized ground-truth computations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "congest/network.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/union_find.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "tree/bfs_tree.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"

namespace lcs::testutil {

/// Graph + simulator + distributed BFS tree, ready for shortcut phases.
struct Sim {
  const Graph* graph;
  congest::Network net;
  SpanningTree tree;

  explicit Sim(const Graph& g, NodeId root = 0)
      : graph(&g), net(g), tree(build_bfs_tree(net, root)) {}
};

/// A graph, its partition and the BFS root the superstep tests use.
struct SuperstepFamily {
  const char* name;
  Graph g;
  Partition p;
  NodeId root;
};

/// Grid, ER, genus and wheel (hub unassigned) with random-BFS or arc parts.
inline std::vector<SuperstepFamily> superstep_families() {
  std::vector<SuperstepFamily> families;
  {
    Graph g = make_grid(9, 9);
    Partition p = make_random_bfs_partition(g, 9, 2);
    families.push_back({"grid", std::move(g), std::move(p), 0});
  }
  {
    Graph g = make_erdos_renyi(90, 0.05, 3);
    Partition p = make_random_bfs_partition(g, 10, 4);
    families.push_back({"er", std::move(g), std::move(p), 0});
  }
  {
    Graph g = make_genus_grid(8, 8, 3, 5);
    Partition p = make_random_bfs_partition(g, 7, 6);
    families.push_back({"genus", std::move(g), std::move(p), 0});
  }
  {
    const NodeId n = 61;
    families.push_back(
        {"wheel", make_wheel(n), make_cycle_arcs_partition(n, 6), n - 1});
  }
  return families;
}

/// The superstep families plus a one-node graph and a path: the graphs the
/// engine-reference tests compare the host-counted schedules on.
inline std::vector<SuperstepFamily> reference_families() {
  std::vector<SuperstepFamily> families = superstep_families();
  {
    Graph g = make_path(1);
    Partition p = make_random_bfs_partition(g, 1, 1);
    families.push_back({"one-node", std::move(g), std::move(p), 0});
  }
  {
    Graph g = make_path(23);
    Partition p = make_random_bfs_partition(g, 4, 3);
    families.push_back({"path", std::move(g), std::move(p), 0});
  }
  return families;
}

/// A runner's supergraph as plain values, so that one EXPECT_EQ compares
/// two runners: each node's supernode, each link's fields in send order,
/// each supernode's send count, and `all_sends()`.
using SupergraphValues =
    std::tuple<std::vector<SuperstepRunner::Supernode>,
               std::vector<std::tuple<SuperstepRunner::Supernode,
                                      SuperstepRunner::Supernode, NodeId,
                                      NodeId, EdgeId>>,
               std::vector<std::int64_t>, std::int64_t>;

inline SupergraphValues supergraph_values(const SuperstepRunner& runner) {
  SupergraphValues values;
  auto& [supernodes, links, sends, all_sends] = values;
  const auto n = util::checked_cast<NodeId>(runner.partition().part_of.size());
  for (NodeId v = 0; v < n; ++v) supernodes.push_back(runner.supernode(v));
  for (const SuperstepRunner::Link& link : runner.links())
    links.emplace_back(link.from_super, link.to_super, link.from, link.to,
                       link.edge);
  for (SuperstepRunner::Supernode s = 0; s < runner.num_supernodes(); ++s)
    sends.push_back(runner.sends(s));
  all_sends = runner.all_sends();
  return values;
}

/// Runs `body` and returns the rounds and messages it added to `net`.
template <class Body>
std::pair<std::int64_t, std::int64_t> measure(const congest::Network& net,
                                              Body&& body) {
  const std::int64_t r0 = net.total_rounds();
  const std::int64_t m0 = net.total_messages();
  body();
  return {net.total_rounds() - r0, net.total_messages() - m0};
}

/// One block component of a part, computed centrally.
struct CentralComponent {
  std::vector<NodeId> nodes;   ///< sorted; all endpoints of `edges`
  std::vector<EdgeId> edges;   ///< sorted
  NodeId root = kNoNode;       ///< unique minimum-depth node
  bool touches_part = false;   ///< intersects Pi (block component proper)
};

/// All components of (V, Hi) that contain at least one edge or one Pi node
/// (singleton Pi nodes appear as edge-less components).
inline std::vector<CentralComponent> central_components(
    const Graph& g, const SpanningTree& tree, const Partition& p,
    const Shortcut& s, PartId part) {
  const auto edges = s.edges_of_parts(p.num_parts);
  const auto& part_edges = edges[static_cast<std::size_t>(part)];

  std::vector<NodeId> involved;
  for (const EdgeId e : part_edges) {
    involved.push_back(g.edge(e).u);
    involved.push_back(g.edge(e).v);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (p.part(v) == part) involved.push_back(v);
  std::sort(involved.begin(), involved.end());
  involved.erase(std::unique(involved.begin(), involved.end()),
                 involved.end());

  auto index_of = [&](NodeId v) {
    return static_cast<std::size_t>(
        std::lower_bound(involved.begin(), involved.end(), v) -
        involved.begin());
  };
  UnionFind uf(involved.size());
  for (const EdgeId e : part_edges)
    uf.unite(index_of(g.edge(e).u), index_of(g.edge(e).v));

  std::map<std::size_t, CentralComponent> by_root;
  for (const NodeId v : involved) {
    auto& comp = by_root[uf.find(index_of(v))];
    comp.nodes.push_back(v);
    if (p.part(v) == part) comp.touches_part = true;
  }
  for (const EdgeId e : part_edges)
    by_root[uf.find(index_of(g.edge(e).u))].edges.push_back(e);

  std::vector<CentralComponent> result;
  for (auto& [_, comp] : by_root) {
    std::sort(comp.nodes.begin(), comp.nodes.end());
    std::sort(comp.edges.begin(), comp.edges.end());
    comp.root = *std::min_element(
        comp.nodes.begin(), comp.nodes.end(), [&](NodeId a, NodeId b) {
          return tree.depth[static_cast<std::size_t>(a)] <
                 tree.depth[static_cast<std::size_t>(b)];
        });
    result.push_back(std::move(comp));
  }
  return result;
}

/// Centralized count of block components (Definition 3) for one part.
inline std::int32_t central_block_count(const Graph& g,
                                        const SpanningTree& tree,
                                        const Partition& p, const Shortcut& s,
                                        PartId part) {
  std::int32_t count = 0;
  for (const auto& comp : central_components(g, tree, p, s, part))
    if (comp.touches_part) ++count;
  return count;
}

}  // namespace lcs::testutil
