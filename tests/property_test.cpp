/// \file property_test.cpp
/// Parameterized end-to-end property sweeps: for every (family, partition,
/// seed) combination, the full FindShortcut pipeline must satisfy Theorem
/// 3's guarantees, the routing primitives must agree with centralized
/// oracles, and the accounting must be consistent. These are the
/// "invariant" tests — they assert *properties*, not specific values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/existential.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/part_routing.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "test_util.h"
#include "tree/bfs_tree.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"

namespace lcs {
namespace {

using testutil::Sim;

struct Scenario {
  std::string name;
  Graph graph;
  Partition partition;
  NodeId root;
};

Scenario make_scenario(const std::string& family, std::uint64_t seed) {
  if (family == "grid-blobs") {
    Graph g = make_grid(14, 14);
    auto p = make_random_bfs_partition(g, 12, seed);
    return {family, std::move(g), std::move(p), 0};
  }
  if (family == "grid-rows") {
    Graph g = make_grid(16, 12);
    auto p = make_grid_rows_partition(16, 12, 2);
    return {family, std::move(g), std::move(p), 0};
  }
  if (family == "grid-snake") {
    Graph g = make_grid(12, 12);
    auto p = make_snake_partition(12, 12, 6);
    return {family, std::move(g), std::move(p), 0};
  }
  if (family == "torus") {
    Graph g = make_torus(12, 12);
    auto p = make_random_bfs_partition(g, 10, seed);
    return {family, std::move(g), std::move(p), 0};
  }
  if (family == "genus4") {
    Graph g = make_genus_grid(12, 12, 4, seed);
    auto p = make_forest_split_partition(g, 9, seed + 1);
    return {family, std::move(g), std::move(p), 0};
  }
  if (family == "erdos-renyi") {
    Graph g = make_erdos_renyi(150, 0.03, seed);
    auto p = make_random_bfs_partition(g, 12, seed + 2);
    return {family, std::move(g), std::move(p), 0};
  }
  if (family == "wheel-arcs") {
    Graph g = make_wheel(161);
    auto p = make_cycle_arcs_partition(161, 8);
    return {family, std::move(g), std::move(p), 160};
  }
  if (family == "lower-bound") {
    Graph g = make_lower_bound_graph(8, 8);
    auto p = make_lower_bound_partition(8, 8, g.num_nodes());
    return {family, std::move(g), std::move(p), g.num_nodes() - 1};
  }
  if (family == "maze") {
    Graph g = make_random_maze(14, 14, 0.3, seed);
    auto p = make_random_bfs_partition(g, 10, seed + 3);
    return {family, std::move(g), std::move(p), 0};
  }
  ADD_FAILURE() << "unknown family " << family;
  return {family, make_path(2), make_whole_graph_partition(2), 0};
}

/// (family, seed, runs): each suite runs its pipeline `runs` times on one
/// Network (the `_t<runs>` suffix of the test name). Every run after the
/// first must reproduce the first bit for bit and add the same rounds and
/// messages, so no state leaks from one call into the next.
class PipelineProperty : public ::testing::TestWithParam<
                             std::tuple<std::string, std::uint64_t, int>> {};

TEST_P(PipelineProperty, Theorem3EndToEnd) {
  const auto& [family, seed, runs] = GetParam();
  Scenario sc = make_scenario(family, seed);
  validate_partition(sc.graph, sc.partition);

  Sim sim(sc.graph, sc.root);
  FindShortcutParams params;
  params.seed = seed + 1000;
  std::optional<FindShortcutResult> first;
  const auto cost = testutil::measure(sim.net, [&] {
    first.emplace(
        find_shortcut_doubling(sim.net, sim.tree, sc.partition, params));
  });
  const FindShortcutResult& found = *first;

  for (int run = 1; run < runs; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    std::optional<FindShortcutResult> again;
    const auto again_cost = testutil::measure(sim.net, [&] {
      again.emplace(
          find_shortcut_doubling(sim.net, sim.tree, sc.partition, params));
    });
    EXPECT_EQ(again->state.shortcut.parts_on_edge,
              found.state.shortcut.parts_on_edge);
    EXPECT_EQ(again->stats.iterations, found.stats.iterations);
    EXPECT_EQ(again->stats.trials, found.stats.trials);
    EXPECT_EQ(again->stats.used_c, found.stats.used_c);
    EXPECT_EQ(again->stats.used_b, found.stats.used_b);
    EXPECT_EQ(again->stats.rounds, found.stats.rounds);
    EXPECT_EQ(again_cost, cost);
  }

  // Structure.
  validate_shortcut(sc.graph, sim.tree, sc.partition, found.state.shortcut);

  // Block budget (Theorem 3).
  const std::int32_t b =
      block_parameter(sc.graph, sc.partition, found.state.shortcut);
  EXPECT_LE(b, 3 * found.stats.used_b);

  // Congestion within O(log N) of the used budget.
  const std::int32_t c =
      congestion(sc.graph, sc.partition, found.state.shortcut);
  const double log_n =
      std::log2(std::max<double>(2.0, sc.partition.num_parts));
  EXPECT_LE(c, (8 * found.stats.used_c + 1) *
                   (util::checked_trunc<std::int32_t>(2 * log_n) + 8));

  // Lemma 1: dilation bounded (and finite — every subgraph connected).
  const std::int32_t d =
      dilation_estimate(sc.graph, sc.partition, found.state.shortcut);
  ASSERT_NE(d, std::numeric_limits<std::int32_t>::max());
  EXPECT_LE(d, lemma1_dilation_bound(sim.tree, b));

  // Theorem 2 on the result: leaders are part minima.
  const NeighborParts nb = exchange_neighbor_parts(sim.net, sc.partition);
  const auto leaders =
      elect_part_leaders(sim.net, sim.tree, sc.partition, found.state, nb,
                         3 * found.stats.used_b);
  const auto groups = sc.partition.members();
  for (NodeId v = 0; v < sc.graph.num_nodes(); ++v) {
    const PartId j = sc.partition.part(v);
    if (j == kNoPart) continue;
    EXPECT_EQ(leaders[static_cast<std::size_t>(v)],
              groups[static_cast<std::size_t>(j)].front());
  }

  // Accounting sanity: rounds and messages were actually consumed.
  EXPECT_GT(sim.net.total_rounds(), 0);
  EXPECT_GT(sim.net.total_messages(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, PipelineProperty,
    ::testing::Combine(
        ::testing::Values("grid-blobs", "grid-rows", "grid-snake", "torus",
                          "genus4", "erdos-renyi", "wheel-arcs",
                          "lower-bound", "maze"),
        ::testing::Values(1ULL, 2ULL, 3ULL), ::testing::Values(1, 3)),
    [](const ::testing::TestParamInfo<PipelineProperty::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + "_seed" + std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

/// (family, seed, builds): the BFS tree the sweep runs on is built
/// `builds` times on one Network (the `_t<builds>` suffix).
class ExistentialProperty : public ::testing::TestWithParam<
                                std::tuple<std::string, std::uint64_t, int>> {
};

TEST_P(ExistentialProperty, GreedyGeometryInvariants) {
  const auto& [family, seed, builds] = GetParam();
  Scenario sc = make_scenario(family, seed);
  // Build the tree distributedly `builds` times on one Network: every
  // rebuild runs the engine over the per-phase state the earlier phases
  // left and must give the same tree for the same rounds and messages.
  Sim sim(sc.graph, sc.root);
  const SpanningTree& tree = sim.tree;
  const std::pair<std::int64_t, std::int64_t> cost{sim.net.total_rounds(),
                                                   sim.net.total_messages()};
  for (int build = 1; build < builds; ++build) {
    SpanningTree again;
    const auto again_cost = testutil::measure(
        sim.net, [&] { again = build_bfs_tree(sim.net, sc.root); });
    ASSERT_EQ(again.parent, tree.parent) << "build " << build;
    ASSERT_EQ(again.depth, tree.depth) << "build " << build;
    ASSERT_EQ(again_cost, cost) << "build " << build;
  }

  const auto points = pareto_sweep(sc.graph, tree, sc.partition);
  ASSERT_FALSE(points.empty());
  EXPECT_EQ(points.back().block, 1);
  for (const auto& point : points) {
    // The greedy result is a valid shortcut with threshold-bounded lists.
    const Shortcut s =
        greedy_blocked_shortcut(sc.graph, tree, sc.partition, point.threshold);
    validate_shortcut(sc.graph, tree, sc.partition, s);
    EXPECT_LE(point.congestion, point.threshold + 1);
    // Lemma 1 holds for every sweep point too.
    const std::int32_t d = dilation_estimate(sc.graph, sc.partition, s);
    if (d != std::numeric_limits<std::int32_t>::max()) {
      EXPECT_LE(d, lemma1_dilation_bound(tree, point.block));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, ExistentialProperty,
    ::testing::Combine(::testing::Values("grid-blobs", "torus", "genus4",
                                         "erdos-renyi", "lower-bound"),
                       ::testing::Values(5ULL, 6ULL), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<ExistentialProperty::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + "_seed" + std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace lcs
