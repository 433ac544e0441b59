#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "scenario/scenario.h"
#include "shortcut/core_fast.h"
#include "shortcut/core_slow.h"
#include "shortcut/existential.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_ops.h"
#include "shortcut/verification.h"
#include "test_util.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs {
namespace {

using testutil::Sim;

/// Rounds, messages and iterations charged.
struct Charge {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int32_t iterations = 0;
};

/// What the run-every-iteration reference saw while it ran.
struct ReferenceTally {
  /// Trials with an iteration that retired no node under a core that
  /// ignores its seed: the library ends such a trial at that stall.
  std::int32_t stalled_trials = 0;
  /// Trials whose parts were all served by one iteration: the library
  /// reuses that iteration's state and runner.
  std::int32_t one_iteration_successes = 0;
  /// Trials won after an earlier iteration retired parts: the library
  /// builds the combined shortcut's state and runner afresh.
  std::int32_t later_successes = 0;
  /// Iterations that retired no node while parts remained, whatever the
  /// core.
  std::int32_t idle_iterations = 0;
  /// What the iterations after each trial's first seedless stall charged:
  /// the ones the library does not run.
  Charge after_stall;
  /// Single-trial calls that stalled, where `find_shortcut` throws.
  std::int32_t thrown_at_stall = 0;
};

/// FindShortcut's trial run to its end, from the public calls (the loop
/// bench/e2e's replica runs): every iteration up to success or the budget
/// runs, and the combined shortcut is returned for its state to be built
/// afresh. Every iteration after a stall under a seedless core must repeat
/// the stall, retiring nothing and charging what it charged: that is why
/// the library may end the trial there.
std::optional<Shortcut> reference_try_find(congest::Network& net,
                                           const SpanningTree& tree,
                                           const Partition& partition,
                                           const FindShortcutParams& params,
                                           std::int32_t max_iterations,
                                           std::int32_t& iterations_used,
                                           ReferenceTally& tally) {
  const NodeId n = net.num_nodes();
  const bool seedless =
      !params.use_fast ||
      core_fast_sampling_probability(n, params.c, params.gamma) >= 1.0;
  Partition remaining = partition;
  Shortcut combined;
  combined.parts_on_edge.resize(
      static_cast<std::size_t>(net.graph().num_edges()));
  std::optional<Charge> stall;  // the first seedless stall's own charge
  bool served_any = false;
  for (std::int32_t iter = 0; iter < max_iterations; ++iter) {
    ++iterations_used;
    const std::int64_t rounds_before = net.total_rounds();
    const std::int64_t messages_before = net.total_messages();
    CoreResult core =
        params.use_fast
            ? core_fast(net, tree, remaining.part_of,
                        CoreFastParams{params.c, params.gamma,
                                       hash64(params.seed,
                                              static_cast<std::uint64_t>(
                                                  iterations_used))})
            : core_slow(net, tree, remaining.part_of, params.c);
    ShortcutState tentative = compute_shortcut_state(
        net, tree, remaining, std::move(core.shortcut));
    const NeighborParts neighbor_parts =
        exchange_neighbor_parts(net, remaining);
    const VerificationResult verdict = verify_block_parameter(
        net, tree, remaining, tentative, 3 * params.b, neighbor_parts);
    for (EdgeId e = 0; e < net.graph().num_edges(); ++e) {
      std::vector<PartId> kept;
      for (const PartId j :
           tentative.shortcut.parts_on_edge[static_cast<std::size_t>(e)])
        if (verdict.part_good[static_cast<std::size_t>(j)]) kept.push_back(j);
      auto& out = combined.parts_on_edge[static_cast<std::size_t>(e)];
      std::vector<PartId> merged;
      std::merge(out.begin(), out.end(), kept.begin(), kept.end(),
                 std::back_inserter(merged));
      out = std::move(merged);
    }
    congest::PerNode<bool> still_active(static_cast<std::size_t>(n), false);
    bool retired = false;
    for (NodeId v = 0; v < n; ++v) {
      if (remaining.part(v) == kNoPart) continue;
      if (verdict.node_good[static_cast<std::size_t>(v)]) {
        remaining.part_of[static_cast<std::size_t>(v)] = kNoPart;
        retired = true;
      } else {
        still_active[static_cast<std::size_t>(v)] = true;
      }
    }
    const bool parts_remain = global_or(net, tree, still_active);
    const Charge charged{net.total_rounds() - rounds_before,
                         net.total_messages() - messages_before, 1};
    if (stall.has_value()) {
      EXPECT_FALSE(retired) << "iteration " << iter << " after a stall";
      EXPECT_EQ(charged.rounds, stall->rounds) << "iteration " << iter;
      EXPECT_EQ(charged.messages, stall->messages) << "iteration " << iter;
      tally.after_stall.rounds += charged.rounds;
      tally.after_stall.messages += charged.messages;
      tally.after_stall.iterations += charged.iterations;
    }
    if (!parts_remain) {
      ++(served_any ? tally.later_successes : tally.one_iteration_successes);
      return combined;
    }
    if (!retired) {
      ++tally.idle_iterations;
      if (seedless && !stall.has_value()) stall = charged;
    }
    served_any = served_any || retired;
  }
  if (stall.has_value()) ++tally.stalled_trials;
  return std::nullopt;
}

/// find_shortcut.cpp's automatic per-trial iteration cap.
std::int32_t reference_iteration_cap(const FindShortcutParams& params,
                                     PartId num_parts) {
  if (params.max_iterations > 0) return params.max_iterations;
  const double log_n = std::log2(std::max<double>(2.0, num_parts));
  return util::checked_trunc<std::int32_t>(2.0 * log_n) + 8;
}

/// `find_shortcut` (one trial) or `find_shortcut_doubling` on the
/// reference trial; nullopt where `find_shortcut` throws.
std::optional<FindShortcutResult> reference_find(
    congest::Network& net, const SpanningTree& tree,
    const Partition& partition, FindShortcutParams params, bool doubling,
    ReferenceTally& tally) {
  const std::int64_t rounds_before = net.total_rounds();
  const std::int32_t cap = reference_iteration_cap(params, partition.num_parts);
  FindShortcutStats stats;
  stats.trials = 0;
  for (;;) {
    ++stats.trials;
    std::int32_t iterations = 0;  // the core's seed counts per trial
    auto shortcut = reference_try_find(net, tree, partition, params, cap,
                                       iterations, tally);
    stats.iterations += iterations;
    if (shortcut.has_value()) {
      stats.used_c = params.c;
      stats.used_b = params.b;
      FindShortcutResult result;
      result.state =
          compute_shortcut_state(net, tree, partition, *std::move(shortcut));
      stats.rounds = net.total_rounds() - rounds_before;
      result.stats = stats;
      return result;
    }
    if (!doubling) return std::nullopt;
    params.c *= 2;
    params.b *= 2;
  }
}

/// Runs the library and the reference on fresh networks and requires the
/// same outcome: every stats field, the final shortcut and its
/// representation, and rounds, messages and iterations equal to the
/// reference's less what it charged after each trial's first seedless
/// stall. Counts single trials that stalled (the library throws there).
void expect_matches_reference(const testutil::SuperstepFamily& f,
                              const FindShortcutParams& params, bool doubling,
                              ReferenceTally& tally, const std::string& what) {
  SCOPED_TRACE(what);
  Sim lib(f.g, f.root);
  Sim ref(f.g, f.root);
  std::optional<FindShortcutResult> got;
  try {
    got = doubling ? find_shortcut_doubling(lib.net, lib.tree, f.p, params)
                   : find_shortcut(lib.net, lib.tree, f.p, params);
  } catch (const CheckFailure&) {
    ASSERT_FALSE(doubling) << "doubling threw";
  }
  const ReferenceTally before = tally;
  const std::optional<FindShortcutResult> want =
      reference_find(ref.net, ref.tree, f.p, params, doubling, tally);
  const Charge skipped{
      tally.after_stall.rounds - before.after_stall.rounds,
      tally.after_stall.messages - before.after_stall.messages,
      tally.after_stall.iterations - before.after_stall.iterations};
  ASSERT_EQ(got.has_value(), want.has_value());
  EXPECT_EQ(lib.net.total_rounds(), ref.net.total_rounds() - skipped.rounds);
  EXPECT_EQ(lib.net.total_messages(),
            ref.net.total_messages() - skipped.messages);
  EXPECT_EQ(lib.net.phases(), ref.net.phases());
  if (!got.has_value()) {
    if (tally.stalled_trials > before.stalled_trials) ++tally.thrown_at_stall;
    return;
  }
  EXPECT_EQ(got->stats.iterations,
            want->stats.iterations - skipped.iterations);
  EXPECT_EQ(got->stats.trials, want->stats.trials);
  EXPECT_EQ(got->stats.used_c, want->stats.used_c);
  EXPECT_EQ(got->stats.used_b, want->stats.used_b);
  EXPECT_EQ(got->stats.rounds, want->stats.rounds - skipped.rounds);
  EXPECT_EQ(got->state.shortcut.parts_on_edge,
            want->state.shortcut.parts_on_edge);
  EXPECT_EQ(got->state.own_block_root, want->state.own_block_root);
  EXPECT_EQ(got->state.broadcast.rounds, want->state.broadcast.rounds);
  EXPECT_EQ(got->state.broadcast.messages, want->state.broadcast.messages);
  EXPECT_EQ(got->state.convergecast.rounds, want->state.convergecast.rounds);
  EXPECT_EQ(got->state.convergecast.messages,
            want->state.convergecast.messages);
}

/// End-to-end checks of Theorem 3's guarantees for a given scenario:
/// validity, block parameter <= 3b, congestion <= O(c log N).
void expect_theorem3(const Graph& g, const Partition& p,
                     const FindShortcutParams& params) {
  Sim setup(g);
  const FindShortcutResult result =
      find_shortcut(setup.net, setup.tree, p, params);
  const Shortcut& s = result.state.shortcut;
  validate_shortcut(g, setup.tree, p, s);

  EXPECT_LE(block_parameter(g, p, s), 3 * params.b);
  // Congestion: at most (8c + 1) per iteration (CoreFast), 2c+1 (CoreSlow).
  const std::int32_t per_iter = params.use_fast ? 8 * params.c : 2 * params.c;
  EXPECT_LE(congestion(g, p, s),
            result.stats.iterations * per_iter + 1);
  // Iterations: O(log N) with decent slack.
  const double log_n = std::log2(std::max<double>(2.0, p.num_parts));
  EXPECT_LE(result.stats.iterations, util::checked_trunc<std::int32_t>(2 * log_n) + 8);
}

TEST(FindShortcut, GridWithRowPartsKnownParams) {
  const Graph g = make_grid(10, 10);
  const auto p = make_grid_rows_partition(10, 10, 2);
  // Existential parameters measured centrally.
  const SpanningTree tree = reference_bfs_tree(g, 0);
  const auto point = best_existential_for_block(g, tree, p, 4);
  FindShortcutParams params;
  params.c = std::max(point.congestion, 1);
  params.b = point.block;
  expect_theorem3(g, p, params);
}

TEST(FindShortcut, RandomGraphsAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(90, 0.05, seed);
    const auto p = make_random_bfs_partition(g, 10, seed + 3);
    const SpanningTree tree = reference_bfs_tree(g, 0);
    const auto point = best_existential_for_block(g, tree, p, 4);
    FindShortcutParams params;
    params.c = std::max(point.congestion, 1);
    params.b = point.block;
    params.seed = seed + 11;
    expect_theorem3(g, p, params);
  }
}

TEST(FindShortcut, CoreSlowVariantIsDeterministic) {
  const Graph g = make_grid(8, 8);
  const auto p = make_random_bfs_partition(g, 8, 2);
  const SpanningTree tree = reference_bfs_tree(g, 0);
  const auto point = best_existential_for_block(g, tree, p, 4);
  FindShortcutParams params;
  params.c = std::max(point.congestion, 1);
  params.b = point.block;
  params.use_fast = false;
  expect_theorem3(g, p, params);

  Sim s1(g), s2(g);
  const auto r1 = find_shortcut(s1.net, s1.tree, p, params);
  const auto r2 = find_shortcut(s2.net, s2.tree, p, params);
  EXPECT_EQ(r1.state.shortcut.parts_on_edge, r2.state.shortcut.parts_on_edge);
  EXPECT_EQ(s1.net.total_rounds(), s2.net.total_rounds());
}

TEST(FindShortcut, ThrowsWhenBudgetTooSmall) {
  // A hard instance with (c, b) = (1, 1) assumed: the lower-bound graph
  // cannot satisfy everyone at congestion O(1) and 3 blocks.
  const NodeId k = 8;
  const Graph g = make_lower_bound_graph(k, k);
  const auto p = make_lower_bound_partition(k, k, g.num_nodes());
  Sim setup(g, g.num_nodes() - 1);
  FindShortcutParams params;
  params.c = 1;
  params.b = 1;
  params.max_iterations = 6;
  EXPECT_THROW(find_shortcut(setup.net, setup.tree, p, params), CheckFailure);
}

TEST(FindShortcutDoubling, ConvergesWithoutKnownParameters) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = make_grid(9, 9);
    const auto p = make_random_bfs_partition(g, 9, seed);
    Sim setup(g);
    FindShortcutParams params;
    params.seed = seed;
    const auto result =
        find_shortcut_doubling(setup.net, setup.tree, p, params);
    validate_shortcut(g, setup.tree, p, result.state.shortcut);
    EXPECT_GE(result.stats.trials, 1);
    EXPECT_LE(block_parameter(g, p, result.state.shortcut),
              3 * result.stats.used_b);
  }
}

TEST(FindShortcutDoubling, FindsBetterThanTheoryOnWheel) {
  // Appendix A's observation: doubling discovers the (c, b) = (2, 1)-ish
  // wheel shortcut immediately, far below any genus-based bound.
  const NodeId n = 101;
  const Graph g = make_wheel(n);
  const auto p = make_cycle_arcs_partition(n, 10);
  Sim setup(g, n - 1);
  FindShortcutParams params;
  const auto result = find_shortcut_doubling(setup.net, setup.tree, p, params);
  EXPECT_LE(result.stats.used_c, 4);
  EXPECT_LE(congestion(g, p, result.state.shortcut), 16);
  EXPECT_LE(block_parameter(g, p, result.state.shortcut), 3);
}

TEST(FindShortcutDoubling, HandlesLowerBoundGraph) {
  // Even the pathological instance terminates — with proportionally larger
  // discovered parameters.
  const NodeId k = 8;
  const Graph g = make_lower_bound_graph(k, k);
  const auto p = make_lower_bound_partition(k, k, g.num_nodes());
  Sim setup(g, g.num_nodes() - 1);
  FindShortcutParams params;
  const auto result = find_shortcut_doubling(setup.net, setup.tree, p, params);
  validate_shortcut(g, setup.tree, p, result.state.shortcut);
  EXPECT_LE(block_parameter(g, p, result.state.shortcut),
            3 * result.stats.used_b);
}

TEST(FindShortcut, SinglePartWholeGraph) {
  const Graph g = make_grid(6, 6);
  const auto p = make_whole_graph_partition(g.num_nodes());
  Sim setup(g);
  FindShortcutParams params;
  params.c = 1;
  params.b = 1;
  const auto result = find_shortcut(setup.net, setup.tree, p, params);
  validate_shortcut(g, setup.tree, p, result.state.shortcut);
  EXPECT_LE(block_parameter(g, p, result.state.shortcut), 3);
}

TEST(FindShortcut, SingletonPartsAreTriviallySatisfied) {
  const Graph g = make_grid(6, 6);
  const auto p = make_singleton_partition(g.num_nodes());
  Sim setup(g);
  FindShortcutParams params;
  params.c = 1;
  params.b = 1;
  const auto result = find_shortcut(setup.net, setup.tree, p, params);
  // Every part is one node: one block component, done in one iteration.
  EXPECT_EQ(result.stats.iterations, 1);
  EXPECT_LE(block_parameter(g, p, result.state.shortcut), 3);
}

TEST(FindShortcutReference, AbandonAndReuseMatchEveryIteration) {
  ReferenceTally tally;
  for (const auto& f : testutil::superstep_families()) {
    for (const bool use_fast : {true, false}) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        FindShortcutParams params;
        params.use_fast = use_fast;
        params.gamma = 4.0;
        params.seed = seed;
        const std::string what = std::string(f.name) +
                                 (use_fast ? " CoreFast" : " CoreSlow") +
                                 " seed " + std::to_string(seed);
        expect_matches_reference(f, params, true, tally, what + " doubling");
        // One trial at (1, 1), which may fail (and throw), and one at
        // (4, 4).
        expect_matches_reference(f, params, false, tally, what + " (1, 1)");
        params.c = 4;
        params.b = 4;
        expect_matches_reference(f, params, false, tally, what + " (4, 4)");
      }
    }
  }
  // The matrix exercises both shortcuts and the trials that take neither,
  // and stalls that leave iterations to skip, in doubling and in a single
  // trial.
  EXPECT_GT(tally.stalled_trials, 0);
  EXPECT_GT(tally.after_stall.iterations, 0);
  EXPECT_GT(tally.thrown_at_stall, 0);
  EXPECT_GT(tally.one_iteration_successes, 0);
  EXPECT_GT(tally.later_successes, 0);
}

TEST(FindShortcutReference, SeededStallRecovers) {
  // CoreFast at γ = 0.05 samples parts (p < 1), so an iteration that
  // retires nothing does not doom its trial: a later seed serves the
  // parts. Ending the trial at that stall would double to (2, 2).
  const auto sc = scenario::make_scenario("grid:w=12");
  const testutil::SuperstepFamily f{"grid:w=12", sc.graph, sc.partition, 0};
  FindShortcutParams params;
  params.gamma = 0.05;
  params.seed = 2;
  ASSERT_LT(core_fast_sampling_probability(f.g.num_nodes(), 1, params.gamma),
            1.0);
  ReferenceTally tally;
  expect_matches_reference(f, params, true, tally, "grid:w=12 doubling");
  EXPECT_GT(tally.idle_iterations, 0);
  EXPECT_EQ(tally.stalled_trials, 0);

  Sim setup(f.g, f.root);
  const auto result =
      find_shortcut_doubling(setup.net, setup.tree, f.p, params);
  EXPECT_EQ(result.stats.trials, 1);
  EXPECT_EQ(result.stats.iterations, 5);
  EXPECT_EQ(result.stats.used_c, 1);
  EXPECT_EQ(result.stats.used_b, 1);
}

}  // namespace
}  // namespace lcs
