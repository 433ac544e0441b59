#include "mst/boruvka_shortcut.h"

#include <cmath>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "mst/boruvka_common.h"
#include "mst/mwoe.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/part_routing.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_ops.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs {

DistributedMst mst_boruvka_shortcut(congest::Network& net,
                                    const SpanningTree& tree,
                                    const ShortcutMstOptions& options) {
  const Graph& g = net.graph();
  const NodeId n = net.num_nodes();
  const std::int64_t rounds_before = net.total_rounds();

  Partition fragments = make_singleton_partition(n);
  std::vector<bool> mst_edge(static_cast<std::size_t>(g.num_edges()), false);
  FindShortcutParams params = options.shortcut_params;

  const std::int32_t max_phases =
      8 * util::checked_trunc<std::int32_t>(
              std::log2(std::max<double>(2.0, n))) +
      20;
  std::int32_t phase = 0;
  for (;; ++phase) {
    LCS_CHECK(phase < max_phases, "Boruvka did not converge (bug)");

    // (1) Who are my neighbors' fragments? One round.
    const NeighborParts neighbor_parts =
        exchange_neighbor_parts(net, fragments);

    // (2) Shortcut for the current fragments (Appendix-A doubling).
    params.seed = hash64(options.seed, 0xC0FFEE, phase);
    const FindShortcutResult found =
        find_shortcut_doubling(net, tree, fragments, params);
    params.c = found.stats.used_c;  // warm start for the next phase
    params.b = found.stats.used_b;
    const std::int32_t b_steps = 3 * found.stats.used_b;

    // (3) Fragment MWOE via Theorem-2 min-flood on the shortcut. Both
    //     floods of the phase share one runner.
    SuperstepRunner runner(net, tree, fragments, found.state, neighbor_parts);
    const auto local = local_mwoe_candidates(g, fragments, neighbor_parts);
    const auto mwoe = part_min_flood(runner, b_steps, local);

    // (4) Star merges: mark MST edges, propose, broadcast, apply.
    StarMergeStep step = star_merge_step(g, fragments, neighbor_parts, mwoe,
                                         options.seed, phase, mst_edge);
    const auto delivered = part_min_flood(runner, b_steps, step.proposals);
    apply_merges(fragments, delivered);

    // (5) Termination: does any fragment still have an outgoing edge?
    if (!global_or(net, tree, step.has_outgoing)) break;
  }

  return finish_mst(g, mst_edge, phase + 1,
                    net.total_rounds() - rounds_before);
}

}  // namespace lcs
