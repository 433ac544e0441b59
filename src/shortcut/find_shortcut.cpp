#include "shortcut/find_shortcut.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/core_fast.h"
#include "shortcut/core_slow.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_ops.h"
#include "shortcut/verification.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs {

namespace {

std::int32_t auto_iteration_cap(PartId num_parts) {
  const double log_n = std::log2(std::max<double>(2.0, num_parts));
  return util::checked_trunc<std::int32_t>(2.0 * log_n) + 8;
}

/// A successful trial: the combined shortcut's state and, when the first
/// iteration to serve any part served them all, the runner its
/// Verification built on that state, the caller's partition and that
/// partition's neighbor parts.
struct Trial {
  ShortcutState state;
  std::optional<SuperstepRunner> runner;
};

/// One full attempt with fixed (c, b). Returns the combined shortcut's
/// state (and runner, as above), or nullopt if the trial stalled or its
/// iteration budget ran out with parts still unserved; adds the iterations
/// run to `iterations_used` (see find_shortcut.h for the stalled trials,
/// the reused state and runner, and why `caller_parts`, `partition`'s
/// neighbor parts, serve every iteration).
std::optional<Trial> try_find(congest::Network& net, const SpanningTree& tree,
                              const Partition& partition,
                              const NeighborParts& caller_parts,
                              const FindShortcutParams& params,
                              std::int32_t max_iterations,
                              std::int32_t& iterations_used) {
  const NodeId n = net.num_nodes();
  // The core's tentative shortcut, rounds and messages are the same for
  // every seed: CoreSlow has none, and CoreFast ignores its seed when it
  // samples every part (core_fast.h).
  const bool seedless =
      !params.use_fast ||
      core_fast_sampling_probability(n, params.c, params.gamma) >= 1.0;

  // Working copy of the partition: nodes of satisfied parts flip to kNoPart.
  Partition remaining = partition;
  bool served_any = false;  // an earlier iteration retired a node

  Shortcut combined;
  combined.parts_on_edge.resize(
      static_cast<std::size_t>(net.graph().num_edges()));
  // Scratch for merging one edge's good parts into its combined list.
  std::vector<PartId> kept;
  std::vector<PartId> merged;

  bool parts_remain = true;
  for (std::int32_t iter = 0; iter < max_iterations && parts_remain; ++iter) {
    ++iterations_used;
    // Until a node retires, the iteration runs on the caller's partition
    // itself (the same ids as `remaining`), so a runner handed back from it
    // refers to the caller's object.
    const Partition& active = served_any ? remaining : partition;

    // Core subroutine on the not-yet-satisfied parts.
    CoreResult core =
        params.use_fast
            ? core_fast(net, tree, active.part_of,
                        CoreFastParams{params.c, params.gamma,
                                       hash64(params.seed,
                                              static_cast<std::uint64_t>(
                                                  iterations_used))})
            : core_slow(net, tree, active.part_of, params.c);

    // Distributed representation + verification with block budget 3b.
    ShortcutState tentative = compute_shortcut_state(
        net, tree, active, std::move(core.shortcut));
    charge_exchange(net, caller_parts);
    SuperstepRunner runner(net, tree, active, tentative, caller_parts);
    const VerificationResult verdict =
        verify_block_parameter(runner, tentative, 3 * params.b);

    // Retire the nodes of good parts.
    congest::PerNode<bool> still_active(static_cast<std::size_t>(n), false);
    bool any = false;
    bool retired = false;
    for (NodeId v = 0; v < n; ++v) {
      const PartId j = remaining.part(v);
      if (j == kNoPart) continue;
      if (verdict.node_good[static_cast<std::size_t>(v)]) {
        remaining.part_of[static_cast<std::size_t>(v)] = kNoPart;
        retired = true;
      } else {
        still_active[static_cast<std::size_t>(v)] = true;
        any = true;
      }
    }

    // Global termination check: one OR-convergecast over T (O(D) rounds).
    // Its word also carries "some node retired", so every node learns
    // `retired` at no extra charge.
    parts_remain = global_or(net, tree, still_active);
    LCS_CHECK(parts_remain == any, "termination check disagrees");

    // The first iteration to serve any part served them all: the combined
    // shortcut is its tentative one, on the caller's partition, and so is
    // the runner its Verification built.
    if (!parts_remain && !served_any) {
      net.add_replayed(tentative.broadcast);
      return Trial{std::move(tentative), std::move(runner)};
    }
    // A stalled iteration under a seedless core: every later iteration of
    // the trial would repeat it exactly, so the trial is lost here.
    if (parts_remain && !retired && seedless) return std::nullopt;
    served_any = served_any || retired;

    // Fix the subgraphs of good parts. Each part is fixed in exactly one
    // iteration, so the per-edge id lists stay sorted after a merge; the
    // shortcut is T-restricted, so only tree edges carry ids.
    for (NodeId v = 0; v < n; ++v) {
      const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
      if (e == kNoEdge) continue;
      kept.clear();
      for (const PartId j :
           tentative.shortcut.parts_on_edge[static_cast<std::size_t>(e)]) {
        if (verdict.part_good[static_cast<std::size_t>(j)]) kept.push_back(j);
      }
      if (kept.empty()) continue;
      auto& out = combined.parts_on_edge[static_cast<std::size_t>(e)];
      merged.clear();
      std::merge(out.begin(), out.end(), kept.begin(), kept.end(),
                 std::back_inserter(merged));
      out.assign(merged.begin(), merged.end());
    }
  }
  if (parts_remain) return std::nullopt;
  // Built once the last iteration's tentative state and runner are gone.
  return Trial{
      compute_shortcut_state(net, tree, partition, std::move(combined)),
      std::nullopt};
}

/// Appendix A's doubling on `caller_parts`, `partition`'s neighbor parts:
/// the successful trial and the call's stats.
std::pair<Trial, FindShortcutStats> run_doubling(
    congest::Network& net, const SpanningTree& tree,
    const Partition& partition, const NeighborParts& caller_parts,
    FindShortcutParams params) {
  LCS_CHECK(params.c >= 1 && params.b >= 1, "parameters must be positive");
  const std::int64_t rounds_before = net.total_rounds();
  const std::int32_t cap = params.max_iterations > 0
                               ? params.max_iterations
                               : auto_iteration_cap(partition.num_parts);

  FindShortcutStats stats;
  stats.trials = 0;
  // A (c, b) = (n, 1) shortcut always exists (assign every ancestor edge to
  // every part: nothing ever exceeds the threshold), so doubling terminates.
  const std::int64_t limit = 4 * static_cast<std::int64_t>(net.num_nodes()) + 4;
  for (;;) {
    ++stats.trials;
    std::int32_t iterations = 0;
    auto trial = try_find(net, tree, partition, caller_parts, params, cap,
                          iterations);
    stats.iterations += iterations;
    if (trial.has_value()) {
      stats.used_c = params.c;
      stats.used_b = params.b;
      stats.rounds = net.total_rounds() - rounds_before;
      return {std::move(*trial), stats};
    }
    LCS_CHECK(params.c <= limit && params.b <= limit,
              "doubling failed to converge (bug: a trivial shortcut exists)");
    params.c *= 2;
    params.b *= 2;
  }
}

}  // namespace

FindShortcutResult find_shortcut(congest::Network& net,
                                 const SpanningTree& tree,
                                 const Partition& partition,
                                 const FindShortcutParams& params) {
  LCS_CHECK(params.c >= 1 && params.b >= 1, "parameters must be positive");
  const std::int32_t cap = params.max_iterations > 0
                               ? params.max_iterations
                               : auto_iteration_cap(partition.num_parts);

  const std::int64_t rounds_before = net.total_rounds();
  FindShortcutStats stats;
  stats.used_c = params.c;
  stats.used_b = params.b;

  auto trial = try_find(net, tree, partition,
                        neighbor_parts_of(net.graph(), partition), params, cap,
                        stats.iterations);
  LCS_CHECK(trial.has_value(),
            "FindShortcut left parts unserved (a seedless iteration retired "
            "none, or the iteration budget ran out); the assumed (c, b) is "
            "too small — use find_shortcut_doubling");

  FindShortcutResult result;
  result.state = std::move(trial->state);
  stats.rounds = net.total_rounds() - rounds_before;
  result.stats = stats;
  return result;
}

FindShortcutResult find_shortcut_doubling(congest::Network& net,
                                          const SpanningTree& tree,
                                          const Partition& partition,
                                          FindShortcutParams params) {
  auto [trial, stats] =
      run_doubling(net, tree, partition,
                   neighbor_parts_of(net.graph(), partition), params);
  return {std::move(trial.state), stats};
}

RoutableShortcut find_routable_shortcut(congest::Network& net,
                                        const SpanningTree& tree,
                                        const Partition& partition,
                                        FindShortcutParams params) {
  NeighborParts neighbor_parts = neighbor_parts_of(net.graph(), partition);
  auto [trial, stats] =
      run_doubling(net, tree, partition, neighbor_parts, params);
  // A trial that did not hand back its Verification runner gets one here,
  // once its last iteration's state and runner are gone.
  SuperstepRunner runner =
      trial.runner ? std::move(*trial.runner)
                   : SuperstepRunner(net, tree, partition, trial.state,
                                     neighbor_parts);
  return RoutableShortcut{{std::move(trial.state), stats},
                          std::move(neighbor_parts),
                          std::move(runner)};
}

}  // namespace lcs
