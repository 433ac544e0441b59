#include "apps/components.h"

#include <cmath>

#include "congest/network.h"
#include "congest/process.h"
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

namespace {

/// Alive outgoing candidate with (edge id) as the key (unweighted graphs:
/// any outgoing alive edge will do; the id makes the choice unique).
congest::PerNode<std::uint64_t> alive_candidates(
    const Graph& g, const Partition& fragments,
    const NeighborParts& neighbor_parts, const std::vector<bool>& alive) {
  congest::PerNode<std::uint64_t> result(
      static_cast<std::size_t>(g.num_nodes()), kNoCandidate);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const PartId mine = fragments.part(v);
    if (mine == kNoPart) continue;
    const auto nbs = g.neighbors(v);
    const auto nb_parts = neighbor_parts.of(v);
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (nb_parts[k] == mine) continue;
      if (!alive[static_cast<std::size_t>(nbs[k].edge)]) continue;
      result[static_cast<std::size_t>(v)] =
          std::min(result[static_cast<std::size_t>(v)],
                   pack_candidate(1, nbs[k].edge));
    }
  }
  return result;
}

}  // namespace

ComponentsResult distributed_components(congest::Network& net,
                                        const SpanningTree& tree,
                                        const std::vector<bool>& edge_alive,
                                        std::uint64_t seed) {
  const Graph& g = net.graph();
  const NodeId n = net.num_nodes();
  LCS_CHECK(edge_alive.size() == static_cast<std::size_t>(g.num_edges()),
            "one aliveness bit per edge required");
  const std::int64_t rounds_before = net.total_rounds();

  Partition fragments = make_singleton_partition(n);
  std::vector<bool> unused_marks(static_cast<std::size_t>(g.num_edges()),
                                 false);
  FindShortcutParams params;

  const std::int32_t max_phases =
      8 * util::checked_trunc<std::int32_t>(
              std::log2(std::max<double>(2.0, n))) +
      20;
  std::int32_t phase = 0;
  for (;; ++phase) {
    LCS_CHECK(phase < max_phases, "components did not converge (bug)");

    const NeighborParts neighbor_parts =
        exchange_neighbor_parts(net, fragments);

    params.seed = hash64(seed, 0xBEEF, phase);
    const FindShortcutResult found =
        find_shortcut_doubling(net, tree, fragments, params);
    params.c = found.stats.used_c;
    params.b = found.stats.used_b;
    const std::int32_t b_steps = 3 * found.stats.used_b;

    // The MWOE flood and the merge broadcast share one runner.
    SuperstepRunner runner(net, tree, fragments, found.state, neighbor_parts);
    const auto local =
        alive_candidates(g, fragments, neighbor_parts, edge_alive);
    const auto mwoe = part_min_flood(runner, b_steps, local);

    StarMergeStep step = star_merge_step(g, fragments, neighbor_parts, mwoe,
                                         seed, phase, unused_marks);
    const auto delivered = part_min_flood(runner, b_steps, step.proposals);
    apply_merges(fragments, delivered);

    if (!global_or(net, tree, step.has_outgoing)) break;
  }

  ComponentsResult result;
  result.label = fragments.part_of;
  result.phases = phase + 1;
  result.rounds = net.total_rounds() - rounds_before;
  return result;
}

}  // namespace lcs
