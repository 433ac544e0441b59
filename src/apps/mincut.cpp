#include "apps/mincut.h"

#include <cmath>

#include "apps/components.h"
#include "congest/network.h"
#include "graph/graph.h"
#include "tree/spanning_tree.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs {

MincutEstimate approx_mincut(congest::Network& net, const SpanningTree& tree,
                             std::uint64_t seed) {
  const Graph& g = net.graph();
  const std::int64_t rounds_before = net.total_rounds();

  // A single node has no cut: no level could ever drop an edge.
  LCS_CHECK(g.num_nodes() >= 2, "min cut needs at least two nodes");

  MincutEstimate result;
  // Level k samples each edge with probability 2^-k. Level 0 keeps all
  // edges (connected by assumption); stop at the first disconnecting level.
  for (std::int32_t k = 1;; ++k) {
    LCS_CHECK(k < 63, "sampling sweep failed to disconnect (bug)");
    ++result.levels_tested;

    // Shared randomness: both endpoints of an edge evaluate the same coin,
    // so the sample needs no communication.
    std::vector<bool> alive(static_cast<std::size_t>(g.num_edges()));
    const double p = std::pow(0.5, k);
    bool any_dead = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      alive[static_cast<std::size_t>(e)] =
          hash_coin(hash64(seed, static_cast<std::uint64_t>(k)),
                    static_cast<std::uint64_t>(e), p);
      any_dead = any_dead || !alive[static_cast<std::size_t>(e)];
    }
    if (!any_dead) continue;  // nothing sampled out; trivially connected

    const ComponentsResult comps =
        distributed_components(net, tree, alive, hash64(seed, 0xCA7, k));
    bool disconnected = false;
    for (NodeId v = 1; v < g.num_nodes() && !disconnected; ++v)
      disconnected = comps.label[static_cast<std::size_t>(v)] !=
                     comps.label[0];

    if (disconnected) {
      result.estimate = Weight{1} << k;
      break;
    }
  }

  result.rounds = net.total_rounds() - rounds_before;
  return result;
}

}  // namespace lcs
