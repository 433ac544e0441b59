#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "congest/process.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/existential.h"
#include "shortcut/part_routing.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "test_util.h"
#include "util/check.h"

namespace lcs {
namespace {

using testutil::Sim;

struct Routed {
  ShortcutState state;
  NeighborParts neighbor_parts;
  std::int32_t b = 0;
  std::int32_t c = 1;
};

Routed prepare(Sim& setup, const Partition& p, std::int32_t threshold) {
  const Graph& g = setup.net.graph();
  Shortcut s = greedy_blocked_shortcut(g, setup.tree, p, threshold);
  Routed r;
  r.b = block_parameter(g, p, s);
  r.c = std::max(congestion(g, p, s), 1);
  r.state = compute_shortcut_state(setup.net, setup.tree, p, std::move(s));
  r.neighbor_parts = exchange_neighbor_parts(setup.net, p);
  return r;
}

TEST(PartRouting, LeaderIsMinimumMemberId) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(80, 0.05, seed);
    Sim setup(g);
    const auto p = make_random_bfs_partition(g, 9, seed + 1);
    Routed r = prepare(setup, p, 3);

    const auto leaders =
        elect_part_leaders(setup.net, setup.tree, p, r.state,
                           r.neighbor_parts, r.b);
    const auto groups = p.members();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const PartId j = p.part(v);
      if (j == kNoPart) continue;
      EXPECT_EQ(leaders[static_cast<std::size_t>(v)],
                groups[static_cast<std::size_t>(j)].front())
          << "node " << v;
    }
  }
}

TEST(PartRouting, MinFloodComputesPartMinimum) {
  const Graph g = make_grid(9, 9);
  Sim setup(g);
  const auto p = make_grid_rows_partition(9, 9, 3);
  Routed r = prepare(setup, p, 2);

  // Value = a hash-like function of the node id.
  congest::PerNode<std::uint64_t> values(
      static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    values[static_cast<std::size_t>(v)] =
        static_cast<std::uint64_t>((v * 2654435761u) % 100000);

  const auto result = part_min_flood(setup.net, setup.tree, p, r.state,
                                     r.neighbor_parts, r.b, values);

  std::vector<std::uint64_t> expected(
      static_cast<std::size_t>(p.num_parts), kNoValue);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const PartId j = p.part(v);
    expected[static_cast<std::size_t>(j)] =
        std::min(expected[static_cast<std::size_t>(j)],
                 values[static_cast<std::size_t>(v)]);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(result[static_cast<std::size_t>(v)],
              expected[static_cast<std::size_t>(p.part(v))]);
}

TEST(PartRouting, BroadcastDeliversLeaderValue) {
  const Graph g = make_erdos_renyi(90, 0.04, 7);
  Sim setup(g);
  const auto p = make_random_bfs_partition(g, 10, 9);
  Routed r = prepare(setup, p, 4);

  const auto leaders = elect_part_leaders(setup.net, setup.tree, p, r.state,
                                          r.neighbor_parts, r.b);
  congest::PerNode<std::uint64_t> source(
      static_cast<std::size_t>(g.num_nodes()), kNoValue);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (p.part(v) != kNoPart && leaders[static_cast<std::size_t>(v)] == v)
      source[static_cast<std::size_t>(v)] =
          1000 + static_cast<std::uint64_t>(p.part(v));
  }
  const auto result = part_broadcast(setup.net, setup.tree, p, r.state,
                                     r.neighbor_parts, r.b, source);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const PartId j = p.part(v);
    if (j == kNoPart) continue;
    EXPECT_EQ(result[static_cast<std::size_t>(v)],
              1000 + static_cast<std::uint64_t>(j));
  }
}

TEST(PartRouting, WorksOnWheelArcsWithPerfectShortcut) {
  // The motivating example end-to-end: arcs with hub shortcuts elect
  // leaders in O(D + c) per superstep even though arc diameters are huge.
  const NodeId n = 201;
  const Graph g = make_wheel(n);
  Sim setup(g, n - 1);
  const auto p = make_cycle_arcs_partition(n, 8);
  Routed r = prepare(setup, p, 8);
  EXPECT_EQ(r.b, 1);

  const std::int64_t before = setup.net.total_rounds();
  const auto leaders = elect_part_leaders(setup.net, setup.tree, p, r.state,
                                          r.neighbor_parts, r.b);
  const std::int64_t rounds = setup.net.total_rounds() - before;

  const auto groups = p.members();
  for (NodeId v = 0; v < n; ++v) {
    const PartId j = p.part(v);
    if (j == kNoPart) continue;
    EXPECT_EQ(leaders[static_cast<std::size_t>(v)],
              groups[static_cast<std::size_t>(j)].front());
  }
  // One superstep at (D=1ish, c<=9): far below the arc diameter ~25.
  EXPECT_LT(rounds, 25);
}

TEST(PartRouting, RoundsWithinTheorem2Bound) {
  const Graph g = make_grid(12, 12);
  Sim setup(g);
  const auto p = make_random_bfs_partition(g, 16, 3);
  Routed r = prepare(setup, p, 3);

  const std::int64_t before = setup.net.total_rounds();
  elect_part_leaders(setup.net, setup.tree, p, r.state, r.neighbor_parts,
                     r.b);
  const std::int64_t rounds = setup.net.total_rounds() - before;
  EXPECT_LE(rounds, r.b * (3 * (setup.tree.height + r.c) + 16));
}

// The superstep runner derives its same-part edge list from
// NeighborParts::of, so the exchange must align with the adjacency: entry k
// of node v is the part of v's k-th neighbor, kNoPart included.
TEST(PartRouting, NeighborPartsAlignWithAdjacency) {
  const NodeId n = 41;
  const Graph wheel = make_wheel(n);
  const Partition arcs = make_cycle_arcs_partition(n, 5);
  ASSERT_EQ(arcs.part(n - 1), kNoPart);  // the hub
  const Graph er = make_erdos_renyi(90, 0.05, 3);
  const Partition bfs = make_random_bfs_partition(er, 8, 2);

  for (const auto& [g, p] : {std::pair{&wheel, &arcs}, std::pair{&er, &bfs}}) {
    Sim setup(*g);
    const NeighborParts got = exchange_neighbor_parts(setup.net, *p);
    ASSERT_EQ(got.of.size(), static_cast<std::size_t>(g->num_nodes()));
    for (NodeId v = 0; v < g->num_nodes(); ++v) {
      const auto nbs = g->neighbors(v);
      const auto& parts = got.of[static_cast<std::size_t>(v)];
      ASSERT_EQ(parts.size(), static_cast<std::size_t>(g->degree(v)))
          << "node " << v;
      for (std::size_t k = 0; k < nbs.size(); ++k)
        EXPECT_EQ(parts[k], p->part(nbs[k].node))
            << "node " << v << " neighbor " << k;
    }
  }
}

// A runner checks its inputs against the network when it is built: a
// NeighborParts row shorter than the node's adjacency would otherwise be
// read out of bounds by the cross exchange.
TEST(PartRouting, SuperstepRunnerRejectsMismatchedInputs) {
  const Graph g = make_grid(6, 6);
  Sim setup(g);
  const auto p = make_grid_rows_partition(6, 6, 3);
  Routed r = prepare(setup, p, 2);
  const auto build = [&](const Partition& partition,
                         const NeighborParts& neighbor_parts) {
    SuperstepRunner runner(setup.net, setup.tree, partition, r.state,
                           neighbor_parts);
  };
  EXPECT_NO_THROW(build(p, r.neighbor_parts));

  NeighborParts short_row = r.neighbor_parts;
  short_row.of[7].pop_back();
  EXPECT_THROW(build(p, short_row), CheckFailure);
  NeighborParts missing_node = r.neighbor_parts;
  missing_node.of.pop_back();
  EXPECT_THROW(build(p, missing_node), CheckFailure);
  Partition short_partition = p;
  short_partition.part_of.pop_back();
  EXPECT_THROW(build(short_partition, r.neighbor_parts), CheckFailure);
}

TEST(PartRouting, SingletonPartsTrivially) {
  // Every node its own part with an empty shortcut: leaders are the nodes
  // themselves and no messages are needed beyond the (empty) supersteps.
  const Graph g = make_grid(5, 5);
  Sim setup(g);
  const auto p = make_singleton_partition(g.num_nodes());
  Shortcut s;
  s.parts_on_edge.resize(static_cast<std::size_t>(g.num_edges()));
  ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, std::move(s));
  const NeighborParts neighbor_parts = exchange_neighbor_parts(setup.net, p);
  const auto leaders = elect_part_leaders(setup.net, setup.tree, p, state,
                                          neighbor_parts, 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(leaders[static_cast<std::size_t>(v)], v);
}

}  // namespace
}  // namespace lcs
