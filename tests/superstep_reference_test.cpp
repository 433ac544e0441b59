/// \file superstep_reference_test.cpp
/// The supergraph supersteps and the representation broadcast against
/// engine references: Verification and the part min-flood, which keep one
/// value per supernode and add their rounds and messages with
/// `add_replayed`, must reach the same verdicts, values, rounds and
/// messages as the node-level protocols of superstep_reference.h, which run
/// every superstep as engine phases. The `add_replayed` guards live here
/// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "engine_reference.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/core_fast.h"
#include "shortcut/existential.h"
#include "shortcut/part_routing.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_routing.h"
#include "shortcut/verification.h"
#include "superstep_reference.h"
#include "test_util.h"
#include "util/check.h"

namespace lcs {
namespace {

using congest::Context;
using congest::Incoming;
using congest::Network;
using congest::PhaseStats;
using congest::Process;

// ---------------------------------------------------------------------------
// The supergraph against the node-level engine protocols. Verification and
// part_min_flood keep one value per supernode and charge each superstep
// from the runner's counts; the references of superstep_reference.h keep
// one value per node and run every superstep as engine phases. Both must
// reach the same verdicts and values with the same rounds and messages.

/// Verdicts and counts of the library's Verification and the node-level
/// reference on one network, both on `state`; returns the library's.
VerificationResult expect_verification_matches(
    testutil::Sim& sim, const Partition& p, const ShortcutState& state,
    const NeighborParts& neighbor_parts, std::int32_t b_limit) {
  SCOPED_TRACE("b_limit=" + std::to_string(b_limit));
  VerificationResult got;
  const auto got_cost = testutil::measure(sim.net, [&] {
    got = verify_block_parameter(sim.net, sim.tree, p, state, b_limit,
                                 neighbor_parts);
  });
  testutil::ReferenceVerification want;
  const auto want_cost = testutil::measure(sim.net, [&] {
    want = testutil::reference_verify(sim.net, sim.tree, p, state, b_limit,
                                      neighbor_parts);
  });
  EXPECT_EQ(got.node_good, want.result.node_good);
  EXPECT_EQ(got.part_good, want.result.part_good);
  EXPECT_EQ(got_cost, want_cost);
  return got;
}

/// Values and counts of `part_min_flood` and the node-level reference.
void expect_min_flood_matches(testutil::Sim& sim, const Partition& p,
                              const ShortcutState& state,
                              const NeighborParts& neighbor_parts,
                              std::int32_t b_steps,
                              const congest::PerNode<std::uint64_t>& init) {
  SCOPED_TRACE("b_steps=" + std::to_string(b_steps));
  congest::PerNode<std::uint64_t> got;
  const auto got_cost = testutil::measure(sim.net, [&] {
    got = part_min_flood(sim.net, sim.tree, p, state, neighbor_parts, b_steps,
                         init);
  });
  congest::PerNode<std::uint64_t> want;
  const auto want_cost = testutil::measure(sim.net, [&] {
    want = testutil::reference_min_flood(sim.net, sim.tree, p, state,
                                         neighbor_parts, b_steps, init);
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_cost, want_cost);
}

/// One value per node, scattered, so a supernode's members differ.
congest::PerNode<std::uint64_t> scattered_values(NodeId n) {
  congest::PerNode<std::uint64_t> values(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < values.size(); ++v)
    values[v] = (v * 2654435761u) % 1009;
  return values;
}

TEST(SupergraphReference, VerificationMatchesNodeLevelEngine) {
  std::int64_t good = 0;
  std::int64_t bad = 0;
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    SCOPED_TRACE(f.name);
    for (const std::int32_t threshold : {1, 3}) {
      SCOPED_TRACE("threshold=" + std::to_string(threshold));
      testutil::Sim sim(f.g, f.root);
      const ShortcutState state = compute_shortcut_state(
          sim.net, sim.tree, f.p,
          greedy_blocked_shortcut(f.g, sim.tree, f.p, threshold));
      const NeighborParts neighbor_parts =
          exchange_neighbor_parts(sim.net, f.p);
      for (const std::int32_t b_limit : {1, 2, 4, 8}) {
        const VerificationResult r = expect_verification_matches(
            sim, f.p, state, neighbor_parts, b_limit);
        good += std::count(r.part_good.begin(), r.part_good.end(), true);
        bad += std::count(r.part_good.begin(), r.part_good.end(), false);
      }
    }
  }
  EXPECT_GT(good, 0);
  EXPECT_GT(bad, 0);
}

// The first min-flood superstep sends each member's own value, not its
// supernode's minimum: after one or two supersteps a supernode has heard
// its neighbors' members only, so sending the minimum would reach further.
// The scattered values give links whose sender holds more than its
// supernode's minimum (`witnesses`).
TEST(SupergraphReference, MinFloodMatchesNodeLevelEngine) {
  std::int64_t witnesses = 0;
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    SCOPED_TRACE(f.name);
    for (const std::int32_t threshold : {1, 3}) {
      SCOPED_TRACE("threshold=" + std::to_string(threshold));
      testutil::Sim sim(f.g, f.root);
      Shortcut s = greedy_blocked_shortcut(f.g, sim.tree, f.p, threshold);
      const std::int32_t b = block_parameter(f.g, f.p, s);
      const ShortcutState state =
          compute_shortcut_state(sim.net, sim.tree, f.p, std::move(s));
      const NeighborParts neighbor_parts =
          exchange_neighbor_parts(sim.net, f.p);
      const auto init = scattered_values(f.g.num_nodes());

      const SuperstepRunner runner(sim.net, sim.tree, f.p, state,
                                   neighbor_parts);
      std::vector<std::uint64_t> lowest(runner.num_supernodes(), kNoValue);
      for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
        const auto super = runner.supernode(v);
        if (super != SuperstepRunner::kNoSupernode)
          lowest[super] =
              std::min(lowest[super], init[static_cast<std::size_t>(v)]);
      }
      for (const SuperstepRunner::Link& link : runner.links())
        if (init[static_cast<std::size_t>(link.from)] > lowest[link.from_super])
          ++witnesses;

      for (const std::int32_t b_steps : {1, 2, b, 3 * b, 20 * b})
        expect_min_flood_matches(sim, f.p, state, neighbor_parts, b_steps,
                                 init);
    }
  }
  EXPECT_GT(witnesses, 0);
}

// Singleton supernodes (no shortcut edge at all: every member alone) and
// parts that are one supernode each (every ancestor edge of every member).
TEST(SupergraphReference, SingletonAndWholePartSupernodes) {
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    SCOPED_TRACE(f.name);
    testutil::Sim sim(f.g, f.root);
    Shortcut empty;
    empty.parts_on_edge.resize(static_cast<std::size_t>(f.g.num_edges()));
    const auto groups = f.p.members();
    std::size_t members = 0;
    std::size_t parts = 0;
    for (const auto& group : groups) {
      members += group.size();
      parts += group.empty() ? 0 : 1;
    }
    const NeighborParts neighbor_parts = exchange_neighbor_parts(sim.net, f.p);
    const auto init = scattered_values(f.g.num_nodes());
    for (const bool whole : {false, true}) {
      SCOPED_TRACE(whole ? "whole parts" : "singletons");
      const ShortcutState state = compute_shortcut_state(
          sim.net, sim.tree, f.p,
          whole ? full_ancestor_shortcut(f.g, sim.tree, f.p) : empty);
      const SuperstepRunner runner(sim.net, sim.tree, f.p, state,
                                   neighbor_parts);
      EXPECT_EQ(runner.num_supernodes(), whole ? parts : members);
      EXPECT_TRUE(!whole || runner.links().empty());
      for (const std::int32_t b_limit : {1, 2})
        expect_verification_matches(sim, f.p, state, neighbor_parts, b_limit);
      for (const std::int32_t b_steps : {1, 2, 5})
        expect_min_flood_matches(sim, f.p, state, neighbor_parts, b_steps,
                                 init);
    }
  }
}

/// One part over every node of `g`.
Partition whole_part(const Graph& g) {
  Partition p;
  p.num_parts = 1;
  p.part_of.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  return p;
}

// A leader flood that has not converged within b_limit: on a path whose
// block ids go up and down, one superstep leaves every local minimum
// believing it leads. The part fails, and the contracted supersteps must
// fail it the same way (the same flags, counts and verdict rounds).
TEST(SupergraphReference, UnconvergedLeaderFloodLeavesSeveralLeaders) {
  // Path 3-0-4-5-1-6-2-7 rooted at 3; edge 2 (4-5) carries the part, so
  // the blocks along the path are 3, 0, {4, 5} (block id 4), 1, 6, 2, 7.
  const Graph g(8, {{3, 0}, {0, 4}, {4, 5}, {5, 1}, {1, 6}, {6, 2}, {2, 7}});
  const Partition p = whole_part(g);
  testutil::Sim sim(g, 3);
  Shortcut s;
  s.parts_on_edge.resize(static_cast<std::size_t>(g.num_edges()));
  s.parts_on_edge[2] = {0};
  const ShortcutState state =
      compute_shortcut_state(sim.net, sim.tree, p, std::move(s));
  ASSERT_EQ(state.own_block_root[5], 4);
  const NeighborParts neighbor_parts = exchange_neighbor_parts(sim.net, p);

  const testutil::ReferenceVerification ref = testutil::reference_verify(
      sim.net, sim.tree, p, state, 1, neighbor_parts);
  std::vector<NodeId> leaders;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (ref.lead[i] == static_cast<std::uint64_t>(v)) leaders.push_back(v);
  }
  EXPECT_EQ(leaders, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_FALSE(ref.result.part_good[0]);

  for (const std::int32_t b_limit : {1, 2, 4, 8})
    expect_verification_matches(sim, p, state, neighbor_parts, b_limit);
}

// A supernode V2 leaves unreached next to a reached one with the same
// leader: V2.5 flags the reached side. Singletons (no shortcut edge), node
// ids as block ids, b_limit 2:
//
//   0 - 2 - 3 - 1 - 4 - 5 - 6 - 3
//
// Nodes 0 and 1 both lead (0 is three hops from 1); 6 follows leader 1
// through 3, which follows 0, so the BFS from 1 reaches 5 at depth 2 and
// never 6. 5 hears an unreached neighbor with its own leader.
TEST(SupergraphReference, UnreachedSupernodeFlagsItsNeighbor) {
  const Graph g(7, {{0, 2}, {2, 3}, {3, 1}, {1, 4}, {4, 5}, {5, 6}, {6, 3}});
  const Partition p = whole_part(g);
  testutil::Sim sim(g, 0);
  Shortcut empty;
  empty.parts_on_edge.resize(static_cast<std::size_t>(g.num_edges()));
  const ShortcutState state =
      compute_shortcut_state(sim.net, sim.tree, p, std::move(empty));
  const NeighborParts neighbor_parts = exchange_neighbor_parts(sim.net, p);

  const testutil::ReferenceVerification ref = testutil::reference_verify(
      sim.net, sim.tree, p, state, 2, neighbor_parts);
  EXPECT_EQ(ref.lead, (std::vector<std::uint64_t>{0, 1, 0, 0, 1, 1, 1}));
  EXPECT_EQ(ref.depth[5], 2u);
  EXPECT_EQ(ref.depth[6], testutil::ReferenceVerification::kInfDepth);
  EXPECT_TRUE(ref.flag[5]);
  EXPECT_FALSE(ref.result.part_good[0]);

  for (const std::int32_t b_limit : {1, 2, 4, 8})
    expect_verification_matches(sim, p, state, neighbor_parts, b_limit);
}

// FindShortcut builds every iteration's Verification runner on the caller
// partition's neighbor parts, also after parts have retired (find_shortcut.h,
// "One exchange array per partition"). Parts retire whole, so the entries
// in which that array differs from a fresh exchange on the remaining
// partition are never an active node's own part: runners on the two arrays
// must be the same supergraph, and Verification on them must reach the same
// verdicts with the same rounds and messages. The parts a first
// Verification at b_limit 1 judges good retire, as in FindShortcut, and the
// cases where that is a nonempty proper subset are compared.
TEST(SupergraphReference, RetiredNeighborsLeaveTheRunnerUnchanged) {
  std::int64_t retired_parts = 0;
  std::int64_t active_parts = 0;
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(std::string(f.name) + " seed " + std::to_string(seed));
      testutil::Sim sim(f.g, f.root);
      // At γ = 1/4 CoreFast samples below probability 1 on these graphs,
      // so the seed matters.
      const CoreFastParams core{1, 0.25, seed};
      ASSERT_LT(core_fast_sampling_probability(f.g.num_nodes(), core.c,
                                               core.gamma),
                1.0);
      const NeighborParts caller = neighbor_parts_of(f.g, f.p);

      const ShortcutState first = compute_shortcut_state(
          sim.net, sim.tree, f.p,
          core_fast(sim.net, sim.tree, f.p.part_of, core).shortcut);
      SuperstepRunner first_runner(sim.net, sim.tree, f.p, first, caller);
      const VerificationResult first_verdict =
          verify_block_parameter(first_runner, first, 1);
      Partition remaining = f.p;
      for (NodeId v = 0; v < f.g.num_nodes(); ++v)
        if (first_verdict.node_good[static_cast<std::size_t>(v)])
          remaining.part_of[static_cast<std::size_t>(v)] = kNoPart;
      std::int64_t retired = 0;
      std::int64_t active = 0;
      for (const auto& members : f.p.members()) {
        if (members.empty()) continue;
        if (remaining.part(members.front()) == kNoPart)
          ++retired;
        else
          ++active;
      }
      if (retired == 0 || active == 0) continue;
      retired_parts += retired;
      active_parts += active;

      const ShortcutState state = compute_shortcut_state(
          sim.net, sim.tree, remaining,
          core_fast(sim.net, sim.tree, remaining.part_of, core).shortcut);
      SuperstepRunner on_caller(sim.net, sim.tree, remaining, state, caller);
      SuperstepRunner on_fresh(sim.net, sim.tree, remaining, state,
                               exchange_neighbor_parts(sim.net, remaining));
      EXPECT_EQ(testutil::supergraph_values(on_caller),
                testutil::supergraph_values(on_fresh));

      for (const std::int32_t b_limit : {1, 2, 4}) {
        SCOPED_TRACE("b_limit=" + std::to_string(b_limit));
        VerificationResult got;
        const auto got_cost = testutil::measure(sim.net, [&] {
          got = verify_block_parameter(on_caller, state, b_limit);
        });
        VerificationResult want;
        const auto want_cost = testutil::measure(sim.net, [&] {
          want = verify_block_parameter(on_fresh, state, b_limit);
        });
        EXPECT_EQ(got.node_good, want.node_good);
        EXPECT_EQ(got.part_good, want.part_good);
        EXPECT_EQ(got_cost, want_cost);
      }
    }
  }
  EXPECT_GT(retired_parts, 0);
  EXPECT_GT(active_parts, 0);
}

// The representation broadcast's stats are the plan's broadcast schedule:
// any engine broadcast on the same plan, whatever words it carries, takes
// the same rounds and sends one message per slot that rides its parent
// edge. The superstep runner adds these stats instead of simulating it.
TEST(ParallelRepresentation, BroadcastStatsAreThePlansSchedule) {
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    SCOPED_TRACE(f.name);
    testutil::Sim sim(f.g, f.root);
    Shortcut s = greedy_blocked_shortcut(f.g, sim.tree, f.p, 3);
    const ShortcutState state =
        compute_shortcut_state(sim.net, sim.tree, f.p, std::move(s));
    const ComponentPlan& plan = state.plan;
    const auto parent_slots =
        std::count_if(plan.slots.begin(), plan.slots.end(),
                      [](const ComponentPlan::Slot& slot) {
                        return slot.has_parent();
                      });
    EXPECT_GT(state.broadcast.rounds, 0);
    EXPECT_EQ(state.broadcast.messages, parent_slots);

    const auto ignore = [](NodeId, PartId, std::uint64_t, std::int32_t) {};
    const PhaseStats zeros = testutil::reference_component_broadcast(
        sim.net, sim.tree, plan, [](NodeId, PartId) { return 0; }, ignore);
    const PhaseStats mixed = testutil::reference_component_broadcast(
        sim.net, sim.tree, plan,
        [](NodeId root, PartId j) {
          return static_cast<std::uint64_t>(root) * 7919 +
                 static_cast<std::uint64_t>(j);
        },
        ignore);
    EXPECT_EQ(std::make_pair(zeros.rounds, zeros.messages),
              std::make_pair(state.broadcast.rounds,
                             state.broadcast.messages));
    EXPECT_EQ(std::make_pair(mixed.rounds, mixed.messages),
              std::make_pair(state.broadcast.rounds,
                             state.broadcast.messages));
  }
}

class AddReplayedInsidePhaseProcess final : public Process {
 public:
  explicit AddReplayedInsidePhaseProcess(Network* net) : net_(net) {}
  void on_start(Context&) override { net_->add_replayed(PhaseStats{1, 1}); }
  void on_round(Context&, std::span<const Incoming>) override {}

 private:
  Network* net_;
};

TEST(ParallelSuperstep, AddReplayedGuards) {
  const Graph g = make_path(3);
  Network net(g);
  net.add_replayed(PhaseStats{3, 5});
  EXPECT_EQ(net.total_rounds(), 3);
  EXPECT_EQ(net.total_messages(), 5);

  EXPECT_THROW(net.add_replayed(PhaseStats{-1, 0}), CheckFailure);
  EXPECT_THROW(net.add_replayed(PhaseStats{0, -1}), CheckFailure);
  std::vector<AddReplayedInsidePhaseProcess> procs(
      static_cast<std::size_t>(g.num_nodes()),
      AddReplayedInsidePhaseProcess(&net));
  EXPECT_THROW(congest::run_phase(net, procs), CheckFailure);
  EXPECT_EQ(net.total_rounds(), 3);
  EXPECT_EQ(net.total_messages(), 5);
}

}  // namespace
}  // namespace lcs
