#include "apps/components.h"

#include <utility>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "mst/boruvka_common.h"
#include "mst/mwoe.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"
#include "util/check.h"

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
  LCS_CHECK(edge_alive.size() == static_cast<std::size_t>(g.num_edges()),
            "one aliveness bit per edge required");
  ShortcutBoruvkaRun run = shortcut_boruvka(
      net, tree,
      [&g, &edge_alive](const Partition& fragments,
                        const NeighborParts& neighbor_parts) {
        return alive_candidates(g, fragments, neighbor_parts, edge_alive);
      },
      seed, 0xBEEF, FindShortcutParams{});

  ComponentsResult result;
  result.label = std::move(run.fragments.part_of);
  result.phases = run.phases;
  result.rounds = run.rounds;
  return result;
}

}  // namespace lcs
