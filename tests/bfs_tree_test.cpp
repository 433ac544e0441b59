#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "congest/network.h"
#include "engine_reference.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/metrics.h"
#include "scenario/scenario.h"
#include "tree/bfs_tree.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {
namespace {

/// The host count and the engine protocol from `root`: the same tree field
/// for field, children order included, and the same rounds and messages;
/// only the engine runs a phase.
void expect_matches_engine(const Graph& g, NodeId root) {
  SCOPED_TRACE("root " + std::to_string(root));
  congest::Network host(g), engine(g);
  const SpanningTree tree = build_bfs_tree(host, root);
  const SpanningTree ref = testutil::reference_bfs(engine, root);
  EXPECT_EQ(tree.parent_edge, ref.parent_edge);
  EXPECT_EQ(tree.parent, ref.parent);
  EXPECT_EQ(tree.depth, ref.depth);
  EXPECT_EQ(tree.children_edges, ref.children_edges);
  EXPECT_EQ(tree.by_depth, ref.by_depth);
  EXPECT_EQ(tree.height, ref.height);
  EXPECT_EQ(host.total_rounds(), engine.total_rounds());
  EXPECT_EQ(host.total_messages(), engine.total_messages());
  EXPECT_EQ(host.phases(), 0);
  EXPECT_EQ(engine.phases(), 1);
}

void expect_bfs_tree_correct(const Graph& g, NodeId root) {
  expect_matches_engine(g, root);
  congest::Network net(g);
  const SpanningTree tree = build_bfs_tree(net, root);
  validate_spanning_tree(g, tree);

  // Depths must equal true hop distances (BFS optimality).
  const auto dist = bfs_distances(g, root);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(tree.depth[static_cast<std::size_t>(v)],
              dist[static_cast<std::size_t>(v)])
        << "node " << v;

  // Rounds: the protocol is O(D) — explore wave + replies + echo.
  const std::int32_t ecc = *std::max_element(dist.begin(), dist.end());
  EXPECT_LE(net.total_rounds(), 4 * (ecc + 2)) << "BFS took too many rounds";
}

TEST(BfsTree, Path) { expect_bfs_tree_correct(make_path(20), 0); }

TEST(BfsTree, PathFromMiddle) { expect_bfs_tree_correct(make_path(21), 10); }

TEST(BfsTree, Cycle) { expect_bfs_tree_correct(make_cycle(17), 3); }

TEST(BfsTree, Grid) { expect_bfs_tree_correct(make_grid(9, 7), 0); }

TEST(BfsTree, Torus) { expect_bfs_tree_correct(make_torus(6, 8), 5); }

TEST(BfsTree, SingleNode) { expect_bfs_tree_correct(make_path(1), 0); }

TEST(BfsTree, TwoNodes) {
  expect_bfs_tree_correct(make_path(2), 0);
  expect_bfs_tree_correct(make_path(2), 1);
}

TEST(BfsTree, RandomGraphsAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_bfs_tree_correct(make_erdos_renyi(120, 0.04, seed), 0);
  }
}

TEST(BfsTree, RandomTreesAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_bfs_tree_correct(make_random_tree(150, seed),
                            util::checked_cast<NodeId>(seed * 7 % 150));
  }
}

TEST(BfsTree, LowerBoundGraph) {
  expect_bfs_tree_correct(make_lower_bound_graph(10, 10), 0);
}

TEST(BfsTree, DeterministicAcrossRuns) {
  const Graph g = make_erdos_renyi(80, 0.06, 5);
  congest::Network net1(g), net2(g);
  const SpanningTree t1 = build_bfs_tree(net1, 0);
  const SpanningTree t2 = build_bfs_tree(net2, 0);
  EXPECT_EQ(t1.parent, t2.parent);
  EXPECT_EQ(t1.depth, t2.depth);
  EXPECT_EQ(net1.total_rounds(), net2.total_rounds());
}

TEST(BfsTree, HeightEqualsRootEccentricity) {
  const Graph g = make_grid(8, 8);
  congest::Network net(g);
  const SpanningTree tree = build_bfs_tree(net, 0);
  EXPECT_EQ(tree.height, 14);  // corner-to-corner
}

TEST(BfsTree, OutOfRangeRootThrows) {
  const Graph g = make_path(4);
  congest::Network net(g);
  EXPECT_THROW(build_bfs_tree(net, -1), CheckFailure);
  EXPECT_THROW(build_bfs_tree(net, 4), CheckFailure);
}

TEST(BfsTree, DisconnectedGraphThrows) {
  const Graph g(4, {{0, 1, 1}, {2, 3, 1}});
  congest::Network net(g);
  EXPECT_THROW(build_bfs_tree(net, 0), CheckFailure);
}

TEST(BfsReference, EveryFamilyAtTwoSizesAndThreeRoots) {
  const std::vector<std::string> specs = {
      "grid:w=5",          "grid:w=23,h=17",
      "torus:w=4",         "torus:w=15,h=11",
      "genus:w=8,g=2",     "genus:w=20,g=6",
      "path:n=7",          "path:n=300",
      "cycle:n=8",         "cycle:n=301",
      "tree:n=20",         "tree:n=500",
      "maze:w=6",          "maze:w=20",
      "er:n=50,deg=4",     "er:n=600,deg=8",
      "wheel:n=17,arcs=4", "wheel:n=257",
      "lb:paths=4",        "lb:paths=12",
      "rmat:scale=5",      "rmat:scale=9",
      "ba:n=40",           "ba:n=500",
      "rreg:n=40",         "rreg:n=500",
      "ktree:n=40",        "ktree:n=500",
  };
  std::set<std::string> covered;
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    const scenario::Scenario s = scenario::make_scenario(spec);
    covered.insert(s.family);
    const NodeId n = s.graph.num_nodes();
    for (const NodeId root : {NodeId{0}, n / 2, n - 1})
      expect_matches_engine(s.graph, root);
  }
  for (const scenario::Family& f : scenario::families()) {
    if (f.name == "file") continue;
    EXPECT_TRUE(covered.count(f.name)) << f.name;
  }
}

TEST(ReferenceBfs, AgreesWithDistributedDepths) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(60, 0.08, seed);
    congest::Network net(g);
    const SpanningTree dist_tree = build_bfs_tree(net, 2);
    const SpanningTree ref_tree = reference_bfs_tree(g, 2);
    validate_spanning_tree(g, ref_tree);
    EXPECT_EQ(dist_tree.depth, ref_tree.depth);
    EXPECT_EQ(dist_tree.height, ref_tree.height);
  }
}

}  // namespace
}  // namespace lcs
