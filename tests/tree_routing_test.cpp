#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "congest/network.h"
#include "engine_reference.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/existential.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "test_util.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"

namespace lcs {
namespace {

using testutil::CentralComponent;
using testutil::Sim;
using testutil::central_components;
using testutil::reference_component_broadcast;
using testutil::reference_component_convergecast;

/// Shared scenario: graph + partition + greedy shortcut at a threshold.
struct Scenario {
  Graph g;
  Partition p;
  Shortcut s;
  std::int32_t max_ids_per_edge = 0;

  Scenario(Graph graph, Partition part, const SpanningTree& tree,
           std::int32_t threshold)
      : g(std::move(graph)), p(std::move(part)) {
    s = greedy_blocked_shortcut(g, tree, p, threshold);
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      max_ids_per_edge = std::max(
          max_ids_per_edge,
          util::checked_cast<std::int32_t>(
              s.parts_on_edge[static_cast<std::size_t>(e)].size()));
  }
};

TEST(TreeRouting, BroadcastReachesEveryComponentNodeExactlyOnce) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(90, 0.05, seed);
    Sim setup(g);
    const auto p = make_random_bfs_partition(g, 10, seed + 5);
    Scenario sc(g, p, setup.tree, 4);

    // (node, part) -> received values.
    std::map<std::pair<NodeId, PartId>, std::vector<std::uint64_t>> seen;
    reference_component_broadcast(
        setup.net, setup.tree, make_component_plan(setup.tree, sc.s),
        [](NodeId root, PartId j) {
          return (static_cast<std::uint64_t>(root) << 20) |
                 static_cast<std::uint64_t>(j);
        },
        [&](NodeId v, PartId j, std::uint64_t value, std::int32_t) {
          seen[{v, j}].push_back(value);
        });

    for (PartId j = 0; j < p.num_parts; ++j) {
      for (const auto& comp : central_components(g, setup.tree, p, sc.s, j)) {
        if (comp.edges.empty()) continue;  // singletons: engine not involved
        const std::uint64_t expected =
            (static_cast<std::uint64_t>(comp.root) << 20) |
            static_cast<std::uint64_t>(j);
        for (const NodeId v : comp.nodes) {
          const auto it = seen.find({v, j});
          ASSERT_NE(it, seen.end()) << "node " << v << " part " << j;
          ASSERT_EQ(it->second.size(), 1u) << "duplicate delivery";
          EXPECT_EQ(it->second.front(), expected);
        }
      }
    }
  }
}

TEST(TreeRouting, ConvergecastSumsComponentContributions) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_grid(9, 9);
    Sim setup(g);
    const auto p = make_random_bfs_partition(g, 8, seed);
    Scenario sc(g, p, setup.tree, 3);
    const ShortcutState state =
        compute_shortcut_state(setup.net, setup.tree, p, sc.s);

    std::map<std::pair<NodeId, PartId>, std::uint64_t> results;
    reference_component_convergecast(
        setup.net, setup.tree, state.plan,
        [](NodeId, PartId) -> std::uint64_t { return 1; },  // count nodes
        [](std::uint64_t a, std::uint64_t b) { return a + b; },
        [&](NodeId root, PartId j, std::uint64_t agg) {
          results[{root, j}] = agg;
        });

    for (PartId j = 0; j < p.num_parts; ++j) {
      for (const auto& comp :
           central_components(g, setup.tree, p, state.shortcut, j)) {
        if (comp.edges.empty()) continue;
        const auto it = results.find({comp.root, j});
        ASSERT_NE(it, results.end());
        EXPECT_EQ(it->second, comp.nodes.size());
      }
    }
  }
}

TEST(TreeRouting, ConvergecastMinFindsComponentMinimum) {
  const Graph g = make_grid(8, 8);
  Sim setup(g);
  const auto p = make_grid_rows_partition(8, 8, 2);
  Scenario sc(g, p, setup.tree, 4);
  const ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, sc.s);

  std::map<std::pair<NodeId, PartId>, std::uint64_t> results;
  reference_component_convergecast(
      setup.net, setup.tree, state.plan,
      [](NodeId v, PartId) { return static_cast<std::uint64_t>(v); },
      [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); },
      [&](NodeId root, PartId j, std::uint64_t agg) {
        results[{root, j}] = agg;
      });

  for (PartId j = 0; j < p.num_parts; ++j) {
    for (const auto& comp :
         central_components(g, setup.tree, p, state.shortcut, j)) {
      if (comp.edges.empty()) continue;
      EXPECT_EQ(results.at({comp.root, j}),
                static_cast<std::uint64_t>(comp.nodes.front()));
    }
  }
}

TEST(TreeRouting, FifoDispatchesSimultaneouslyReadyComponentsInPartOrder) {
  // Regression test: the convergecast assigns the kFifo scheduling key (a
  // per-node sequence number) by walking the node's component slots when
  // several components become ready in the same round, so that walk is part
  // of the observable schedule. It used to walk an unordered_map, whose
  // iteration order is a standard-library artifact — reproducible on one
  // platform, different on another. Pin the contract: simultaneously-ready
  // components dispatch in ascending PartId order.
  const Graph g = make_path(3);  // 0 - 1 - 2, rooted at 0
  Sim setup(g);
  constexpr PartId kParts = 10;

  // Hand-built shortcut: every part rides every tree edge, so the leaf
  // (node 2) participates in all ten components and — having no children —
  // finds all ten ready at once in on_start.
  Shortcut s;
  s.parts_on_edge.assign(static_cast<std::size_t>(g.num_edges()), {});
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (PartId j = 0; j < kParts; ++j)
      s.parts_on_edge[static_cast<std::size_t>(e)].push_back(j);
  }

  ComponentPlan plan = make_component_plan(setup.tree, s);
  for (ComponentPlan::Slot& slot : plan.slots)
    if (slot.has_parent()) slot.parent_root_depth = 0;  // root: node 0
  plan.has_root_depths = true;

  std::vector<PartId> order;
  reference_component_convergecast(
      setup.net, setup.tree, plan,
      [](NodeId v, PartId) { return static_cast<std::uint64_t>(v); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; },
      [&](NodeId root, PartId j, std::uint64_t agg) {
        EXPECT_EQ(root, 0);
        EXPECT_EQ(agg, 3u);  // contributions 0 + 1 + 2
        order.push_back(j);
      },
      RoutingPriority::kFifo);

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kParts));
  for (PartId j = 0; j < kParts; ++j)
    EXPECT_EQ(order[static_cast<std::size_t>(j)], j) << "dispatch position " << j;

  // The host schedule's (release, part) key: node 2's ten words leave in
  // rounds -1 .. 8, and node 1 forwards each the round after it arrives.
  const congest::PhaseStats host =
      convergecast_schedule(setup.tree, plan, RoutingPriority::kFifo);
  EXPECT_EQ(host.rounds, 11);
  EXPECT_EQ(host.messages, 2 * kParts);
}

TEST(TreeRouting, SlotIndexFindsANodesSlotForAPart) {
  // 0 - 1 - 2 - 3 rooted at 0; parts {2, 5} on edge 0-1 and {5} on 1-2.
  // Slots by node: 0 {2, 5}, 1 {2, 5}, 2 {5}, 3 none.
  const Graph g = make_path(4);
  Sim setup(g);
  Shortcut s;
  s.parts_on_edge = {{2, 5}, {5}, {}};
  const ComponentPlan plan = make_component_plan(setup.tree, s);
  ASSERT_EQ(plan.slots.size(), 5u);
  const std::size_t none = plan.slots.size();

  const std::vector<std::tuple<NodeId, PartId, std::size_t>> present = {
      {0, 2, 0}, {0, 5, 1}, {1, 2, 2}, {1, 5, 3}, {2, 5, 4}};
  for (const auto& [v, j, want] : present) {
    EXPECT_EQ(plan.slot_index(v, j), want) << "node " << v << " part " << j;
    EXPECT_EQ(plan.slots[want].part, j);
  }
  // Parts below, between and above a node's slots, and a node with none.
  for (const auto& [v, j] : std::vector<std::pair<NodeId, PartId>>{
           {0, 0}, {0, 3}, {0, 9}, {2, 2}, {2, 7}, {3, 2}, {3, 5}})
    EXPECT_EQ(plan.slot_index(v, j), none) << "node " << v << " part " << j;
}

TEST(TreeRouting, BroadcastSendOrderOnContestedEdgesPerPriority) {
  // Node 1 has three child edges whose ids run against node order, and the
  // edge to node 2 carries four parts: 1 and 9 rooted at node 0 (depth 0),
  // 3 and 5 rooted at node 1 (depth 1). Messages queue on that edge, so each
  // priority rule yields its own send order. Pinned per rule: the sends of
  // every round and the on_receive order they imply (the roots' own calls
  // in node then part order, then each round's deliveries in ascending
  // node order).
  //   e0 = 0-1 {1, 9}   e1 = 1-4 {1, 5}
  //   e2 = 1-3 {6, 9}   e3 = 1-2 {1, 3, 5, 9}
  const Graph g(5, {{0, 1, 1}, {1, 4, 1}, {1, 3, 1}, {1, 2, 1}});
  Shortcut s;
  s.parts_on_edge = {{1, 9}, {1, 5}, {6, 9}, {1, 3, 5, 9}};
  const auto root_of = [](PartId j) -> NodeId {
    return j == 1 || j == 9 ? 0 : 1;
  };
  const auto word = [](NodeId root, PartId j) {
    return static_cast<std::uint64_t>(100 * root + j);
  };

  struct Send {
    EdgeId edge;
    PartId part;
  };
  struct Case {
    const char* name;
    RoutingPriority priority;
    // sends[r]: the sends of engine round r - 1 (sends[0]: on_start).
    std::vector<std::vector<Send>> sends;
  };
  const std::vector<Send> start = {{0, 1}, {1, 5}, {2, 6}, {3, 3}};
  const std::vector<Case> cases = {
      {"root-depth", RoutingPriority::kRootDepth,
       {start, {{0, 9}, {1, 1}, {3, 1}}, {{2, 9}, {3, 9}}, {{3, 5}}}},
      {"part-id", RoutingPriority::kPartId,
       {start, {{0, 9}, {1, 1}, {3, 1}}, {{2, 9}, {3, 5}}, {{3, 9}}}},
      {"fifo", RoutingPriority::kFifo,
       {start, {{0, 9}, {1, 1}, {3, 5}}, {{2, 9}, {3, 1}}, {{3, 9}}}},
  };

  using Delivery = std::tuple<NodeId, PartId, std::uint64_t, std::int32_t>;
  for (const Case& c : cases) {
    Sim setup(g);
    std::vector<Delivery> want;
    for (const PartId j : {1, 9, 3, 5, 6}) {
      const NodeId root = root_of(j);
      want.emplace_back(root, j, word(root, j),
                        setup.tree.depth[static_cast<std::size_t>(root)]);
    }
    std::int64_t messages = 0;
    for (const auto& round : c.sends) {
      std::vector<Delivery> arrivals;
      for (const Send& send : round) {
        const NodeId root = root_of(send.part);
        arrivals.emplace_back(setup.tree.lower_endpoint(send.edge), send.part,
                              word(root, send.part),
                              setup.tree.depth[static_cast<std::size_t>(root)]);
      }
      std::sort(arrivals.begin(), arrivals.end());  // one per node per round
      want.insert(want.end(), arrivals.begin(), arrivals.end());
      messages += static_cast<std::int64_t>(round.size());
    }

    std::vector<Delivery> got;
    const ComponentPlan plan = make_component_plan(setup.tree, s);
    const congest::PhaseStats stats = reference_component_broadcast(
        setup.net, setup.tree, plan, word,
        [&](NodeId v, PartId j, std::uint64_t value, std::int32_t depth) {
          got.emplace_back(v, j, value, depth);
        },
        c.priority);
    EXPECT_EQ(got, want) << c.name;
    EXPECT_EQ(stats.rounds, static_cast<std::int64_t>(c.sends.size()))
        << c.name;
    EXPECT_EQ(stats.messages, messages) << c.name;
    const congest::PhaseStats host =
        broadcast_schedule(setup.tree, plan, c.priority).stats;
    EXPECT_EQ(host.rounds, stats.rounds) << c.name;
    EXPECT_EQ(host.messages, messages) << c.name;
  }
}

TEST(TreeRouting, RootDepthPriorityShortensAContestedConvergecast) {
  // 0 - 1 - 2 - 3 rooted at 0. Part 1 rides every edge (rooted at node 0,
  // depth 0); part 0 rides only edge 2-3 (rooted at node 2, depth 2). Leaf
  // 3 holds both partial aggregates from the start on one edge. The root
  // depth key sends part 1 first, so it climbs while part 0 waits a round:
  // departures -1, 0, 1 for part 1 and 0 for part 0, 3 rounds. Part id and
  // FIFO order send part 0 first and delay part 1's climb a round: 4.
  const Graph g = make_path(4);
  Sim setup(g);
  Partition p;
  p.part_of = {kNoPart, kNoPart, 0, 1};
  p.num_parts = 2;
  Shortcut s;
  s.parts_on_edge = {{1}, {1}, {0, 1}};
  const ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, s);

  const std::pair<RoutingPriority, std::int64_t> cases[] = {
      {RoutingPriority::kRootDepth, 3},
      {RoutingPriority::kPartId, 4},
      {RoutingPriority::kFifo, 4}};
  for (const auto& [priority, rounds] : cases) {
    const congest::PhaseStats got =
        convergecast_schedule(setup.tree, state.plan, priority);
    const congest::PhaseStats want = reference_component_convergecast(
        setup.net, setup.tree, state.plan,
        [](NodeId, PartId) -> std::uint64_t { return 0; },
        [](std::uint64_t a, std::uint64_t b) { return a | b; },
        [](NodeId, PartId, std::uint64_t) {}, priority);
    EXPECT_EQ(got.rounds, rounds);
    EXPECT_EQ(got.messages, 4);
    EXPECT_EQ(want.rounds, rounds);
    EXPECT_EQ(want.messages, 4);
  }
  EXPECT_EQ(state.convergecast.rounds, 3);
}

TEST(TreeRouting, Lemma2RoundBound) {
  // Rounds of a parallel broadcast/convergecast stay O(D + c): test with
  // slack factor 2 across families and congestion levels.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const std::int32_t threshold : {1, 4, 16}) {
      const Graph g = make_erdos_renyi(150, 0.03, seed);
      Sim setup(g);
      const auto p = make_random_bfs_partition(g, 25, seed + 9);
      Scenario sc(g, p, setup.tree, threshold);

      const std::int64_t rounds =
          broadcast_schedule(setup.tree, make_component_plan(setup.tree, sc.s))
              .stats.rounds;
      EXPECT_LE(rounds,
                2 * (setup.tree.height + sc.max_ids_per_edge) + 8)
          << "seed " << seed << " threshold " << threshold;
    }
  }
}

TEST(TreeRouting, FullAncestorBroadcastCongestionStress) {
  // Full-ancestor shortcuts put every part on the root edges — the worst
  // case for pipelining. The bound must still hold.
  const Graph g = make_grid(12, 12);
  Sim setup(g);
  const auto p = make_random_bfs_partition(g, 30, 11);
  const Shortcut s = full_ancestor_shortcut(g, setup.tree, p);
  std::int32_t c = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    c = std::max(c, util::checked_cast<std::int32_t>(
                        s.parts_on_edge[static_cast<std::size_t>(e)].size()));

  const std::int64_t rounds =
      broadcast_schedule(setup.tree, make_component_plan(setup.tree, s))
          .stats.rounds;
  EXPECT_LE(rounds, 2 * (setup.tree.height + c) + 8);
}

// ---------------------------------------------------------------------------
// Host schedules against the engine references (engine_reference.h). On
// every reference family, at 1 and 3 threads with every engine round on the
// parallel path and validation on, each priority's host broadcast and
// convergecast must take the reference protocol's rounds and messages, and
// the host broadcast must give every slot the root and root depth the
// reference delivers. The shortcuts range from uncontested to every part on
// every ancestor edge.

TEST(TreeRoutingReference, HostSchedulesMatchEngine) {
  const std::pair<const char*, RoutingPriority> priorities[] = {
      {"root-depth", RoutingPriority::kRootDepth},
      {"part-id", RoutingPriority::kPartId},
      {"fifo", RoutingPriority::kFifo}};
  for (const testutil::SuperstepFamily& f : testutil::reference_families()) {
    for (const int threads : {1, 3}) {
      Sim sim(f.g, f.root, threads);
      std::vector<Shortcut> shortcuts;
      for (const std::int32_t threshold : {1, 3, 1000})
        shortcuts.push_back(
            greedy_blocked_shortcut(f.g, sim.tree, f.p, threshold));
      shortcuts.push_back(full_ancestor_shortcut(f.g, sim.tree, f.p));
      for (std::size_t k = 0; k < shortcuts.size(); ++k) {
        SCOPED_TRACE(std::string(f.name) + " threads=" +
                     std::to_string(threads) + " shortcut " +
                     std::to_string(k));
        const ShortcutState state =
            compute_shortcut_state(sim.net, sim.tree, f.p, shortcuts[k]);
        const ComponentPlan& plan = state.plan;
        for (const auto& [priority_name, priority] : priorities) {
          SCOPED_TRACE(priority_name);
          // Broadcast: every slot hears its component root's id and depth.
          std::vector<NodeId> root(plan.slots.size(), kNoNode);
          std::vector<std::int32_t> root_depth(plan.slots.size(), -1);
          const congest::PhaseStats want_b = reference_component_broadcast(
              sim.net, sim.tree, plan,
              [](NodeId v, PartId) { return static_cast<std::uint64_t>(v); },
              [&](NodeId v, PartId j, std::uint64_t value, std::int32_t rd) {
                const std::size_t s = plan.slot_index(v, j);
                root[s] = util::checked_cast<NodeId>(value);
                root_depth[s] = rd;
              },
              priority);
          const BroadcastSchedule got_b =
              broadcast_schedule(sim.tree, plan, priority);
          EXPECT_EQ(got_b.stats.rounds, want_b.rounds);
          EXPECT_EQ(got_b.stats.messages, want_b.messages);
          EXPECT_EQ(got_b.root, root);
          for (std::size_t s = 0; s < plan.slots.size(); ++s) {
            ASSERT_NE(got_b.root[s], kNoNode) << "slot " << s;
            EXPECT_EQ(sim.tree.depth[static_cast<std::size_t>(got_b.root[s])],
                      root_depth[s])
                << "slot " << s;
            if (plan.slots[s].has_parent()) {
              EXPECT_EQ(plan.slots[s].parent_root_depth, root_depth[s])
                  << "slot " << s;
            }
          }
          for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
            const PartId j = f.p.part(v);
            if (j == kNoPart) continue;
            const std::size_t s = plan.slot_index(v, j);
            EXPECT_EQ(state.own_block_root[static_cast<std::size_t>(v)],
                      s < plan.slots.size() ? root[s] : v)
                << "node " << v;
          }

          // Convergecast, with placeholder words.
          const congest::PhaseStats want_c = reference_component_convergecast(
              sim.net, sim.tree, plan,
              [](NodeId, PartId) -> std::uint64_t { return 0; },
              [](std::uint64_t a, std::uint64_t b) { return a | b; },
              [](NodeId, PartId, std::uint64_t) {}, priority);
          const congest::PhaseStats got_c =
              convergecast_schedule(sim.tree, plan, priority);
          EXPECT_EQ(got_c.rounds, want_c.rounds);
          EXPECT_EQ(got_c.messages, want_c.messages);

          if (priority == RoutingPriority::kRootDepth) {
            EXPECT_EQ(state.broadcast.rounds, want_b.rounds);
            EXPECT_EQ(state.broadcast.messages, want_b.messages);
            EXPECT_EQ(state.convergecast.rounds, want_c.rounds);
            EXPECT_EQ(state.convergecast.messages, want_c.messages);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lcs
