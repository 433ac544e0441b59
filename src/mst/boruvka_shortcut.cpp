#include "mst/boruvka_shortcut.h"

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "mst/boruvka_common.h"
#include "mst/mwoe.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"

namespace lcs {

DistributedMst mst_boruvka_shortcut(congest::Network& net,
                                    const SpanningTree& tree,
                                    const ShortcutMstOptions& options) {
  const Graph& g = net.graph();
  const ShortcutBoruvkaRun run = shortcut_boruvka(
      net, tree,
      [&g](const Partition& fragments, const NeighborParts& neighbor_parts) {
        return local_mwoe_candidates(g, fragments, neighbor_parts);
      },
      options.seed, 0xC0FFEE, options.shortcut_params);
  return finish_mst(g, run.mst_edge, run.phases, run.rounds);
}

}  // namespace lcs
