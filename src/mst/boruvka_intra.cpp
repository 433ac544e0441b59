#include "mst/boruvka_intra.h"

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "mst/boruvka_common.h"
#include "mst/intra_flood.h"
#include "mst/mwoe.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_ops.h"
#include "tree/spanning_tree.h"
#include "util/check.h"

namespace lcs {

DistributedMst mst_boruvka_intra(congest::Network& net,
                                 const SpanningTree& tree,
                                 std::uint64_t seed) {
  const Graph& g = net.graph();
  const NodeId n = net.num_nodes();
  const std::int64_t rounds_before = net.total_rounds();

  Partition fragments = make_singleton_partition(n);
  std::vector<bool> mst_edge(static_cast<std::size_t>(g.num_edges()), false);

  const std::int32_t max_phases = boruvka_phase_cap(n);
  std::int32_t phase = 0;
  for (;; ++phase) {
    LCS_CHECK(phase < max_phases, "Boruvka did not converge (bug)");

    const NeighborParts neighbor_parts =
        exchange_neighbor_parts(net, fragments);

    // Fragment MWOE by flooding inside the fragment: Θ(fragment diameter).
    const auto local = local_mwoe_candidates(g, fragments, neighbor_parts);
    const auto mwoe =
        intra_part_min_flood(net, fragments, neighbor_parts, local);

    StarMergeStep step = star_merge_step(g, fragments, neighbor_parts, mwoe,
                                         seed, phase, mst_edge);
    const auto delivered =
        intra_part_min_flood(net, fragments, neighbor_parts, step.proposals);
    apply_merges(fragments, delivered);

    if (!global_or(net, tree, step.has_outgoing)) break;
  }

  return finish_mst(g, mst_edge, phase + 1,
                    net.total_rounds() - rounds_before);
}

}  // namespace lcs
