#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "congest/process.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/existential.h"
#include "shortcut/part_routing.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "superstep_reference.h"
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
// of node v is the part of v's k-th neighbor, kNoPart included. The
// exchange is one round with one message per directed edge.
TEST(PartRouting, NeighborPartsAlignWithAdjacency) {
  const NodeId n = 41;
  const Graph wheel = make_wheel(n);
  const Partition arcs = make_cycle_arcs_partition(n, 5);
  ASSERT_EQ(arcs.part(n - 1), kNoPart);  // the hub
  const Graph er = make_erdos_renyi(90, 0.05, 3);
  const Partition bfs = make_random_bfs_partition(er, 8, 2);

  for (const auto& [g, p] : {std::pair{&wheel, &arcs}, std::pair{&er, &bfs}}) {
    Sim setup(*g);
    const std::int64_t r0 = setup.net.total_rounds();
    const std::int64_t m0 = setup.net.total_messages();
    const NeighborParts got = exchange_neighbor_parts(setup.net, *p);
    EXPECT_EQ(setup.net.total_rounds() - r0, 1);
    EXPECT_EQ(setup.net.total_messages() - m0, 2 * g->num_edges());
    ASSERT_EQ(got.parts.size(), 2 * static_cast<std::size_t>(g->num_edges()));
    for (NodeId v = 0; v < g->num_nodes(); ++v) {
      const auto nbs = g->neighbors(v);
      const auto parts = got.of(v);
      ASSERT_EQ(parts.size(), static_cast<std::size_t>(g->degree(v)))
          << "node " << v;
      for (std::size_t k = 0; k < nbs.size(); ++k)
        EXPECT_EQ(parts[k], p->part(nbs[k].node))
            << "node " << v << " neighbor " << k;
    }
  }
}

// A runner checks its inputs against the network when it is built:
// NeighborParts shorter than the adjacency would be read out of bounds by
// the cross exchange, and NeighborParts learned on another graph describe
// other edges.
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

  NeighborParts short_parts = r.neighbor_parts;
  short_parts.parts.pop_back();
  EXPECT_THROW(build(p, short_parts), CheckFailure);
  const Graph other = make_grid(6, 6);
  NeighborParts other_graph = r.neighbor_parts;
  other_graph.graph = &other;
  EXPECT_THROW(build(p, other_graph), CheckFailure);
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

// ---------------------------------------------------------------------------
// Fixed-point stop. `part_min_flood` stops running supersteps at the first
// one that lowers no value and charges the rest as its copies. The
// reference below is the node-level min-flood: one value per node, every
// superstep run on the engine (the exchange and Lemma 2's casts each an
// engine phase, superstep_reference.h), no stop. Both must leave the same
// values and the same totals on their networks.

/// part_min_flood without the stop or the supergraph: all `b_steps`
/// node-level supersteps run on the engine.
congest::PerNode<std::uint64_t> full_min_flood(
    Sim& sim, const Partition& p, const ShortcutState& state,
    const NeighborParts& neighbor_parts, std::int32_t b_steps,
    const congest::PerNode<std::uint64_t>& init) {
  return testutil::reference_min_flood(sim.net, sim.tree, p, state,
                                       neighbor_parts, b_steps, init);
}

TEST(PartRouting, FixedPointStopMatchesFullSchedule) {
  std::int32_t widest = 0;
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    SCOPED_TRACE(f.name);
    // Two networks on the same graph, one per side, so their totals compare.
    Sim stop(f.g, f.root);
    Sim full(f.g, f.root);
    Routed rs = prepare(stop, f.p, 1);
    Routed rf = prepare(full, f.p, 1);
    widest = std::max(widest, rs.b);
    const auto n = static_cast<std::size_t>(f.g.num_nodes());

    // Scattered values; every member already at its part's minimum (the
    // first superstep is the fixed point); one source per part (a
    // broadcast); no value at all.
    congest::PerNode<std::uint64_t> scattered(n);
    for (std::size_t v = 0; v < n; ++v) scattered[v] = (v * 2654435761u) % 997;
    congest::PerNode<std::uint64_t> settled(n, kNoValue);
    for (std::size_t v = 0; v < n; ++v)
      if (f.p.part_of[v] != kNoPart)
        settled[v] = static_cast<std::uint64_t>(f.p.part_of[v]);
    congest::PerNode<std::uint64_t> sourced(n, kNoValue);
    const auto groups = f.p.members();
    for (const auto& members : groups)
      sourced[static_cast<std::size_t>(members.back())] = members.size();
    const congest::PerNode<std::uint64_t> empty(n, kNoValue);

    using Values = congest::PerNode<std::uint64_t>;
    for (const Values* init :
         std::initializer_list<const Values*>{&scattered, &settled, &sourced,
                                              &empty}) {
      for (const std::int32_t b_steps : {1, 2, rs.b, 3 * rs.b, 20 * rs.b}) {
        SCOPED_TRACE("b_steps=" + std::to_string(b_steps));
        const auto got = part_min_flood(stop.net, stop.tree, f.p, rs.state,
                                        rs.neighbor_parts, b_steps, *init);
        const auto want = full_min_flood(full, f.p, rf.state,
                                         rf.neighbor_parts, b_steps, *init);
        EXPECT_EQ(got, want);
        ASSERT_EQ(stop.net.total_rounds(), full.net.total_rounds());
        ASSERT_EQ(stop.net.total_messages(), full.net.total_messages());
      }
    }

    // Leader election, and two floods sharing one runner (as Boruvka's
    // phases do): the second starts at its fixed point.
    const std::int32_t far = 20 * rs.b;
    congest::PerNode<std::uint64_t> ids(n);
    for (std::size_t v = 0; v < n; ++v) ids[v] = v;
    const auto leaders = elect_part_leaders(stop.net, stop.tree, f.p,
                                            rs.state, rs.neighbor_parts, far);
    const auto want_ids =
        full_min_flood(full, f.p, rf.state, rf.neighbor_parts, far, ids);
    for (std::size_t v = 0; v < n; ++v) {
      if (f.p.part_of[v] == kNoPart) continue;
      EXPECT_EQ(static_cast<std::uint64_t>(leaders[v]), want_ids[v]);
    }
    SuperstepRunner runner(stop.net, stop.tree, f.p, rs.state,
                           rs.neighbor_parts);
    const auto first = part_min_flood(runner, far, scattered);
    const auto again = part_min_flood(runner, far, first);
    EXPECT_EQ(first, full_min_flood(full, f.p, rf.state, rf.neighbor_parts,
                                    far, scattered));
    EXPECT_EQ(again, full_min_flood(full, f.p, rf.state, rf.neighbor_parts,
                                    far, first));
    EXPECT_EQ(stop.net.total_rounds(), full.net.total_rounds());
    EXPECT_EQ(stop.net.total_messages(), full.net.total_messages());
  }
  EXPECT_GE(widest, 3) << "some flood needs several supersteps";
}

}  // namespace
}  // namespace lcs
