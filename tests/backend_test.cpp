/// Tests for the ShortcutBackend registry (shortcut/backend/): the fixed
/// list and its lookups, applicability, and every built-in construction
/// against the shortcut oracles.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "congest/network.h"
#include "scenario/scenario.h"
#include "shortcut/backend/backend.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/shortcut.h"
#include "tree/bfs_tree.h"
#include "tree/spanning_tree.h"

namespace lcs::backend {
namespace {

TEST(BackendRegistry, BuiltinsComeFirstAndResolveByName) {
  const std::vector<Backend>& all = backends();
  ASSERT_GE(all.size(), 3u);
  EXPECT_EQ(all[0].name, "hiz16");
  EXPECT_EQ(all[1].name, "kkoi19");
  EXPECT_EQ(all[2].name, "naive");
  EXPECT_EQ(std::string(kDefaultBackend), "hiz16");
  for (const Backend& b : all) {
    const Backend* found = find_backend(b.name);
    ASSERT_NE(found, nullptr) << b.name;
    EXPECT_EQ(found->name, b.name);
    EXPECT_FALSE(b.paper.empty()) << b.name;
    EXPECT_FALSE(b.summary.empty()) << b.name;
  }
  EXPECT_EQ(find_backend("frobnicate"), nullptr);
}

TEST(BackendRegistry, ApplicabilityGatesKkoi19ToKtree) {
  const auto ktree = scenario::make_scenario("ktree:n=40,k=3,seed=2");
  const auto grid = scenario::make_scenario("grid:w=5,h=5");
  EXPECT_EQ(find_backend("kkoi19")->applicable(ktree), "");
  EXPECT_NE(find_backend("kkoi19")->applicable(grid), "");
  EXPECT_EQ(applicable_backend_names(ktree),
            (std::vector<std::string>{"hiz16", "kkoi19", "naive"}));
  EXPECT_EQ(applicable_backend_names(grid),
            (std::vector<std::string>{"hiz16", "naive"}));
  EXPECT_EQ(registered_backend_names().substr(0, 20), "hiz16, kkoi19, naive");
}

/// Run `name` on `sc` the way the driver does: engine + BFS tree, then the
/// backend's construct.
BackendOutput run_backend(const std::string& name,
                          const scenario::Scenario& sc, std::uint64_t seed) {
  const Backend* b = find_backend(name);
  EXPECT_NE(b, nullptr) << name;
  congest::Network net(sc.graph);
  const SpanningTree bfs_tree = build_bfs_tree(net, /*root=*/0);
  return b->construct({sc, net, bfs_tree, seed});
}

TEST(BackendConstruct, Hiz16MatchesTheDirectPipeline) {
  const auto sc = scenario::make_scenario("er:n=80,deg=5,seed=3");
  const BackendOutput out = run_backend("hiz16", sc, /*seed=*/7);

  congest::Network net(sc.graph);
  const SpanningTree tree = build_bfs_tree(net, /*root=*/0);
  FindShortcutParams params;
  params.seed = 7;
  const FindShortcutResult direct =
      find_shortcut_doubling(net, tree, sc.partition, params);
  EXPECT_EQ(out.shortcut.parts_on_edge, direct.state.shortcut.parts_on_edge);
  EXPECT_EQ(out.find_stats.iterations, direct.stats.iterations);
  EXPECT_EQ(out.find_stats.trials, direct.stats.trials);
  EXPECT_EQ(out.find_stats.used_c, direct.stats.used_c);
  EXPECT_EQ(out.find_stats.used_b, direct.stats.used_b);
  EXPECT_EQ(out.find_stats.rounds, direct.stats.rounds);
  EXPECT_EQ(out.tree.root, tree.root);
  EXPECT_EQ(out.tree.parent_edge, tree.parent_edge);
  EXPECT_TRUE(out.stats.empty());
}

TEST(BackendConstruct, NaiveIsAValidBlockOneShortcutOnTheBfsTree) {
  const auto sc = scenario::make_scenario("ktree:n=60,k=3,seed=2");
  const BackendOutput out = run_backend("naive", sc, /*seed=*/7);
  EXPECT_EQ(out.tree.root, 0);  // the BFS tree, unchanged
  validate_shortcut(sc.graph, out.tree, sc.partition, out.shortcut);
  // Every Hi is one Steiner subtree: connected, so block parameter 1.
  EXPECT_EQ(block_parameter(sc.graph, sc.partition, out.shortcut), 1);
  ASSERT_EQ(out.stats.size(), 1u);
  EXPECT_EQ(out.stats[0].first, "steiner_edges");
  EXPECT_GT(out.stats[0].second, 0);
}

TEST(BackendConstruct, Kkoi19BuildsAValidShortcutOnItsEliminationTree) {
  const auto sc = scenario::make_scenario("ktree:n=60,k=3,seed=2");
  const BackendOutput out = run_backend("kkoi19", sc, /*seed=*/7);
  validate_spanning_tree(sc.graph, out.tree);
  validate_shortcut(sc.graph, out.tree, sc.partition, out.shortcut);
  EXPECT_EQ(block_parameter(sc.graph, sc.partition, out.shortcut), 1);
  // Greedy min-degree elimination on a 3-tree finds width exactly 3.
  ASSERT_EQ(out.stats.size(), 2u);
  EXPECT_EQ(out.stats[0].first, "width");
  EXPECT_EQ(out.stats[0].second, 3);
  EXPECT_EQ(out.stats[1].first, "steiner_edges");
  EXPECT_GT(out.stats[1].second, 0);
}

TEST(BackendConstruct, DeterministicAcrossRepeats) {
  const auto sc = scenario::make_scenario("ktree:n=60,k=3,seed=2");
  for (const char* name : {"hiz16", "kkoi19", "naive"}) {
    SCOPED_TRACE(name);
    const BackendOutput a = run_backend(name, sc, /*seed=*/7);
    const BackendOutput b = run_backend(name, sc, /*seed=*/7);
    EXPECT_EQ(a.shortcut.parts_on_edge, b.shortcut.parts_on_edge);
    EXPECT_EQ(a.tree.parent_edge, b.tree.parent_edge);
    EXPECT_EQ(a.stats, b.stats);
  }
}

}  // namespace
}  // namespace lcs::backend
