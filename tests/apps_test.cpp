#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "apps/aggregate.h"
#include "apps/components.h"
#include "apps/mincut.h"
#include "congest/process.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/reference.h"
#include "mst/boruvka_shortcut.h"
#include "mst/mwoe.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/part_routing.h"
#include "shortcut/superstep.h"
#include "shortcut/verification.h"
#include "test_util.h"
#include "util/cast.h"
#include "util/random.h"

namespace lcs {
namespace {

using testutil::Sim;

/// Two labelings describe the same partition iff their equivalence classes
/// coincide.
void expect_same_grouping(const std::vector<PartId>& ours,
                          const std::vector<NodeId>& truth) {
  ASSERT_EQ(ours.size(), truth.size());
  std::map<PartId, NodeId> fwd;
  std::map<NodeId, PartId> bwd;
  for (std::size_t v = 0; v < ours.size(); ++v) {
    const auto [it_f, new_f] = fwd.try_emplace(ours[v], truth[v]);
    EXPECT_EQ(it_f->second, truth[v]) << "node " << v;
    const auto [it_b, new_b] = bwd.try_emplace(truth[v], ours[v]);
    EXPECT_EQ(it_b->second, ours[v]) << "node " << v;
  }
}

TEST(Components, FullGraphIsOneComponent) {
  const Graph g = make_grid(7, 7);
  Sim sim(g);
  const std::vector<bool> alive(static_cast<std::size_t>(g.num_edges()),
                                true);
  const auto result = distributed_components(sim.net, sim.tree, alive);
  expect_same_grouping(result.label, connected_components(g, alive));
}

TEST(Components, RandomEdgeSubsetsAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = make_erdos_renyi(60, 0.06, seed);
    Sim sim(g);
    Rng rng(seed + 40);
    std::vector<bool> alive(static_cast<std::size_t>(g.num_edges()));
    for (std::size_t e = 0; e < alive.size(); ++e)
      alive[e] = rng.next_bool(0.5);
    const auto result =
        distributed_components(sim.net, sim.tree, alive, seed);
    expect_same_grouping(result.label, connected_components(g, alive));
  }
}

TEST(Components, NoEdgesMeansSingletons) {
  const Graph g = make_grid(5, 5);
  Sim sim(g);
  const std::vector<bool> alive(static_cast<std::size_t>(g.num_edges()),
                                false);
  const auto result = distributed_components(sim.net, sim.tree, alive);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (NodeId w = v + 1; w < g.num_nodes(); ++w)
      EXPECT_NE(result.label[static_cast<std::size_t>(v)],
                result.label[static_cast<std::size_t>(w)]);
}

TEST(Mincut, CycleEstimateNearTwo) {
  // λ(cycle) = 2: the estimate must land within the O(log n) guarantee.
  const Graph g = make_cycle(64);
  Sim sim(g);
  const auto result = approx_mincut(sim.net, sim.tree, 5);
  EXPECT_GE(result.estimate, 1u);
  EXPECT_LE(result.estimate, 64u);  // 2 * factor 32 >> log n slack
}

TEST(Mincut, EstimateGrowsWithConnectivity) {
  // A sparse cycle (λ=2) against a dense ER graph (λ ~ np): the dense graph
  // must produce a clearly larger estimate, with the exact value checked
  // against Stoer–Wagner's O(log n) window.
  const Graph sparse = make_cycle(60);
  const Graph dense = make_erdos_renyi(60, 0.4, 3);
  Sim sim_s(sparse), sim_d(dense);
  const auto est_s = approx_mincut(sim_s.net, sim_s.tree, 7);
  const auto est_d = approx_mincut(sim_d.net, sim_d.tree, 7);
  EXPECT_GT(est_d.estimate, est_s.estimate);

  const double lambda_d =
      static_cast<double>(stoer_wagner_mincut(dense));
  const double ratio = static_cast<double>(est_d.estimate) / lambda_d;
  const double log_n = std::log2(60.0);
  EXPECT_GE(ratio, 1.0 / (4.0 * log_n));
  EXPECT_LE(ratio, 4.0 * log_n);
}

TEST(Aggregate, MinAndLeaderAndBroadcast) {
  const Graph g = make_grid(8, 8);
  Sim sim(g);
  const auto p = make_grid_rows_partition(8, 8, 2);
  PartAggregator agg(sim.net, sim.tree, p);

  // min
  congest::PerNode<std::uint64_t> values(
      static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    values[static_cast<std::size_t>(v)] =
        1000 - static_cast<std::uint64_t>(v);
  const auto mins = agg.min(values);
  const auto groups = p.members();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& members = groups[static_cast<std::size_t>(p.part(v))];
    EXPECT_EQ(mins[static_cast<std::size_t>(v)],
              1000 - static_cast<std::uint64_t>(members.back()));
  }

  // leaders
  const auto leaders = agg.leaders();
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(leaders[static_cast<std::size_t>(v)],
              groups[static_cast<std::size_t>(p.part(v))].front());

  // broadcast from leaders
  congest::PerNode<std::uint64_t> source(
      static_cast<std::size_t>(g.num_nodes()), kNoValue);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (leaders[static_cast<std::size_t>(v)] == v)
      source[static_cast<std::size_t>(v)] =
          static_cast<std::uint64_t>(p.part(v)) * 7 + 1;
  const auto delivered = agg.broadcast(source);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(delivered[static_cast<std::size_t>(v)],
              static_cast<std::uint64_t>(p.part(v)) * 7 + 1);
}

// One aggregator serves every operation on the one runner it built; the
// per-call signatures build a runner per call. On identical networks the
// two must return the same values and add the same rounds and messages,
// operation by operation.
TEST(Aggregate, SharedRunnerMatchesPerCallSignatures) {
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    SCOPED_TRACE(f.name);
    Sim shared(f.g, f.root);
    Sim per_call(f.g, f.root);
    const auto totals = [](const Sim& sim) {
      return std::make_pair(sim.net.total_rounds(),
                            sim.net.total_messages());
    };

    PartAggregator agg(shared.net, shared.tree, f.p);
    const FindShortcutResult found = find_shortcut_doubling(
        per_call.net, per_call.tree, f.p, FindShortcutParams{});
    const NeighborParts nb = exchange_neighbor_parts(per_call.net, f.p);
    const std::int32_t b_steps = 3 * found.stats.used_b;
    EXPECT_EQ(agg.construction_stats().used_b, found.stats.used_b);
    EXPECT_EQ(agg.construction_stats().rounds, found.stats.rounds);
    EXPECT_EQ(agg.neighbor_parts().parts, nb.parts);
    EXPECT_EQ(totals(shared), totals(per_call));

    const auto values_for = [&](std::uint64_t salt) {
      congest::PerNode<std::uint64_t> values(
          static_cast<std::size_t>(f.g.num_nodes()));
      for (std::size_t v = 0; v < values.size(); ++v)
        values[v] = (v * 2654435761u + salt) % 1000;
      return values;
    };
    const auto first = values_for(17);
    EXPECT_EQ(agg.min(first),
              part_min_flood(per_call.net, per_call.tree, f.p, found.state,
                             nb, b_steps, first));
    EXPECT_EQ(totals(shared), totals(per_call));

    const auto leaders = agg.leaders();
    EXPECT_EQ(leaders, elect_part_leaders(per_call.net, per_call.tree, f.p,
                                          found.state, nb, b_steps));
    EXPECT_EQ(totals(shared), totals(per_call));

    congest::PerNode<std::uint64_t> source(
        static_cast<std::size_t>(f.g.num_nodes()), kNoValue);
    for (NodeId v = 0; v < f.g.num_nodes(); ++v)
      if (leaders[static_cast<std::size_t>(v)] == v)
        source[static_cast<std::size_t>(v)] =
            static_cast<std::uint64_t>(f.p.part(v)) * 7 + 1;
    EXPECT_EQ(agg.broadcast(source),
              part_broadcast(per_call.net, per_call.tree, f.p, found.state,
                             nb, b_steps, source));
    EXPECT_EQ(totals(shared), totals(per_call));

    const auto second = values_for(501);
    EXPECT_EQ(agg.min(second),
              part_min_flood(per_call.net, per_call.tree, f.p, found.state,
                             nb, b_steps, second));
    EXPECT_EQ(totals(shared), totals(per_call));
  }
}

TEST(Aggregate, WheelArcsFastAggregation) {
  // The quickstart scenario: huge-diameter arcs, tiny-diameter wheel.
  const NodeId n = 129;
  const Graph g = make_wheel(n);
  Sim sim(g, n - 1);
  const auto p = make_cycle_arcs_partition(n, 4);
  PartAggregator agg(sim.net, sim.tree, p);

  const std::int64_t before = sim.net.total_rounds();
  agg.leaders();
  // One aggregation is far cheaper than any arc diameter (~32).
  EXPECT_LT(sim.net.total_rounds() - before, 30);
}

// The shortcut layer runs no engine phase: once the BFS tree is built, the
// construction (with either core), Verification, every aggregation and
// MST's Boruvka loop are counted on the host, so the engine's phase
// counter stands still.
TEST(EnginePhases, ShortcutLayerRunsNone) {
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    SCOPED_TRACE(f.name);
    Sim sim(f.g, f.root);
    const std::int64_t bfs_phases = sim.net.phases();
    EXPECT_GT(bfs_phases, 0);

    for (const bool use_fast : {true, false}) {
      FindShortcutParams params;
      params.use_fast = use_fast;
      const FindShortcutResult found =
          find_shortcut_doubling(sim.net, sim.tree, f.p, params);
      EXPECT_EQ(sim.net.phases(), bfs_phases) << "use_fast=" << use_fast;
      const NeighborParts nb = exchange_neighbor_parts(sim.net, f.p);
      (void)verify_block_parameter(sim.net, sim.tree, f.p, found.state,
                                   3 * found.stats.used_b, nb);
      EXPECT_EQ(sim.net.phases(), bfs_phases) << "use_fast=" << use_fast;
    }

    PartAggregator agg(sim.net, sim.tree, f.p);
    congest::PerNode<std::uint64_t> values(
        static_cast<std::size_t>(f.g.num_nodes()));
    for (std::size_t v = 0; v < values.size(); ++v) values[v] = v % 13;
    (void)agg.min(values);
    const auto leaders = agg.leaders();
    congest::PerNode<std::uint64_t> source(values.size(), kNoValue);
    for (std::size_t v = 0; v < values.size(); ++v)
      if (leaders[v] == util::checked_cast<NodeId>(v)) source[v] = v;
    (void)agg.broadcast(source);
    EXPECT_EQ(sim.net.phases(), bfs_phases);

    const Graph weighted = with_random_weights(f.g, 1, 1000, 7);
    Sim mst(weighted, f.root);
    const std::int64_t mst_bfs_phases = mst.net.phases();
    const DistributedMst tree = mst_boruvka_shortcut(mst.net, mst.tree);
    EXPECT_EQ(tree.edges, kruskal_mst(weighted).edges);
    EXPECT_EQ(mst.net.phases(), mst_bfs_phases);
  }
}

}  // namespace
}  // namespace lcs
