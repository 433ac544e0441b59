#include "mst/mwoe.h"

#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/superstep.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs {

std::uint64_t pack_candidate(Weight w, EdgeId e) {
  LCS_CHECK(w < (std::uint64_t{1} << 32), "weight must fit 32 bits");
  LCS_CHECK(e >= 0, "invalid edge id");
  return (w << 32) | util::checked_cast<std::uint32_t>(e);
}

Weight candidate_weight(std::uint64_t packed) { return packed >> 32; }

EdgeId candidate_edge(std::uint64_t packed) {
  return util::checked_cast<EdgeId>(packed & 0xFFFFFFFFu);
}

congest::PerNode<std::uint64_t> local_mwoe_candidates(
    const Graph& g, const Partition& fragments,
    const NeighborParts& neighbor_parts) {
  congest::PerNode<std::uint64_t> result(
      static_cast<std::size_t>(g.num_nodes()), kNoCandidate);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const PartId mine = fragments.part(v);
    if (mine == kNoPart) continue;
    const auto nbs = g.neighbors(v);
    const auto nb_parts = neighbor_parts.of(v);
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (nb_parts[k] == mine) continue;  // internal edge
      const auto cand =
          pack_candidate(g.edge(nbs[k].edge).w, nbs[k].edge);
      result[static_cast<std::size_t>(v)] =
          std::min(result[static_cast<std::size_t>(v)], cand);
    }
  }
  return result;
}

bool is_head(std::uint64_t seed, PartId fragment, std::int32_t phase) {
  return (hash64(seed, static_cast<std::uint64_t>(fragment),
                 static_cast<std::uint64_t>(phase)) &
          1u) != 0;
}

}  // namespace lcs
