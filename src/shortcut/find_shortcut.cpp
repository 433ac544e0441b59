#include "shortcut/find_shortcut.h"

#include <algorithm>
#include <cmath>
#include <iterator>
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

/// One full attempt with fixed (c, b). Returns the combined shortcut or
/// nullopt if the iteration budget ran out with parts still unserved.
std::optional<Shortcut> try_find(congest::Network& net,
                                 const SpanningTree& tree,
                                 const Partition& partition,
                                 const FindShortcutParams& params,
                                 std::int32_t max_iterations,
                                 std::int32_t& iterations_used) {
  const NodeId n = net.num_nodes();

  // Working copy of the partition: nodes of satisfied parts flip to kNoPart.
  Partition remaining = partition;

  Shortcut combined;
  combined.parts_on_edge.resize(
      static_cast<std::size_t>(net.graph().num_edges()));
  // Scratch for merging one edge's good parts into its combined list.
  std::vector<PartId> kept;
  std::vector<PartId> merged;

  for (std::int32_t iter = 0; iter < max_iterations; ++iter) {
    ++iterations_used;

    // Core subroutine on the not-yet-satisfied parts.
    CoreResult core =
        params.use_fast
            ? core_fast(net, tree, remaining.part_of,
                        CoreFastParams{params.c, params.gamma,
                                       hash64(params.seed,
                                              static_cast<std::uint64_t>(
                                                  iterations_used))})
            : core_slow(net, tree, remaining.part_of, params.c);

    // Distributed representation + verification with block budget 3b.
    ShortcutState tentative = compute_shortcut_state(
        net, tree, remaining, std::move(core.shortcut));
    const NeighborParts neighbor_parts =
        exchange_neighbor_parts(net, remaining);
    const VerificationResult verdict = verify_block_parameter(
        net, tree, remaining, tentative, 3 * params.b, neighbor_parts);

    // Fix the subgraphs of good parts and retire those parts. Each part is
    // fixed in exactly one iteration, so the per-edge id lists stay sorted
    // after a merge.
    for (EdgeId e = 0; e < net.graph().num_edges(); ++e) {
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
    congest::PerNode<bool> still_active(static_cast<std::size_t>(n), false);
    bool any = false;
    for (NodeId v = 0; v < n; ++v) {
      const PartId j = remaining.part(v);
      if (j == kNoPart) continue;
      if (verdict.node_good[static_cast<std::size_t>(v)]) {
        remaining.part_of[static_cast<std::size_t>(v)] = kNoPart;
      } else {
        still_active[static_cast<std::size_t>(v)] = true;
        any = true;
      }
    }

    // Global termination check: one OR-convergecast over T (O(D) rounds).
    const bool parts_remain = global_or(net, tree, still_active);
    LCS_CHECK(parts_remain == any, "termination check disagrees");
    if (!parts_remain) return combined;
  }
  return std::nullopt;
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

  auto shortcut =
      try_find(net, tree, partition, params, cap, stats.iterations);
  LCS_CHECK(shortcut.has_value(),
            "FindShortcut exhausted its iteration budget; the assumed (c, b) "
            "is too small — use find_shortcut_doubling");

  FindShortcutResult result;
  result.state =
      compute_shortcut_state(net, tree, partition, *std::move(shortcut));
  stats.rounds = net.total_rounds() - rounds_before;
  result.stats = stats;
  return result;
}

FindShortcutResult find_shortcut_doubling(congest::Network& net,
                                          const SpanningTree& tree,
                                          const Partition& partition,
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
    auto shortcut = try_find(net, tree, partition, params, cap, iterations);
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
    LCS_CHECK(params.c <= limit && params.b <= limit,
              "doubling failed to converge (bug: a trivial shortcut exists)");
    params.c *= 2;
    params.b *= 2;
  }
}

}  // namespace lcs
