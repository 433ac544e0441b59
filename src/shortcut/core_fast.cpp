#include "shortcut/core_fast.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/core_slow.h"
#include "shortcut/tree_ops.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs {

namespace {

/// Phase 3 (Algorithm 2 steps 3–5), counted on the host: route every part
/// id up the tree until its first unusable edge, each node forwarding the
/// smallest unforwarded id it knows each round. Writes the ids that cross
/// each usable tree edge into `parts_on_edge` (ascending) and returns the
/// phase's rounds and messages.
congest::PhaseStats route_all(const SpanningTree& tree,
                              const congest::PerNode<PartId>& own,
                              const std::vector<bool>& unusable,
                              std::vector<std::vector<PartId>>& parts_on_edge) {
  const std::size_t n = tree.depth.size();
  // The ids node v forwarded, with their departure rounds (key = id):
  // sent[first[v] .. first[v] + count[v]).
  std::vector<QueuedItem> sent;
  std::vector<std::size_t> first(n, 0);
  std::vector<std::size_t> count(n, 0);
  std::vector<QueuedItem> queue;  // one node's ids bound up its parent edge
  std::vector<QueuedItem> pending;  // depart_by_key's scratch
  std::int64_t latest = -1;
  std::int64_t messages = 0;
  for (auto it = tree.by_depth.rbegin(); it != tree.by_depth.rend(); ++it) {
    const auto i = static_cast<std::size_t>(*it);
    const EdgeId pe = tree.parent_edge[i];
    if (pe == kNoEdge || unusable[i]) continue;
    queue.clear();
    if (own[i] != kNoPart) {
      const auto j = static_cast<std::uint64_t>(own[i]);
      queue.push_back({-1, j, 0});
    }
    for (const EdgeId ce : tree.children_edges[i]) {
      const auto u = static_cast<std::size_t>(tree.lower_endpoint(ce));
      for (std::size_t k = first[u]; k < first[u] + count[u]; ++k)
        queue.push_back({sent[k].departure + 1, sent[k].key, 0});
    }
    // Each distinct id is forwarded once, released when it first arrived.
    std::sort(queue.begin(), queue.end(),
              [](const QueuedItem& a, const QueuedItem& b) {
                return a.key != b.key ? a.key < b.key : a.release < b.release;
              });
    queue.erase(std::unique(queue.begin(), queue.end(),
                            [](const QueuedItem& a, const QueuedItem& b) {
                              return a.key == b.key;
                            }),
                queue.end());
    std::vector<PartId>& ids = parts_on_edge[static_cast<std::size_t>(pe)];
    ids.clear();
    for (const QueuedItem& item : queue)
      ids.push_back(util::checked_cast<PartId>(item.key));

    depart_by_key(queue, pending);
    for (const QueuedItem& item : queue)
      latest = std::max(latest, item.departure);
    messages += static_cast<std::int64_t>(queue.size());
    first[i] = sent.size();
    count[i] = queue.size();
    sent.insert(sent.end(), queue.begin(), queue.end());
  }
  return cast_stats(latest, messages);
}

}  // namespace

double core_fast_sampling_probability(NodeId n, std::int32_t c, double gamma) {
  LCS_CHECK(n >= 1 && c >= 1 && gamma > 0, "bad CoreFast parameters");
  const double log_n = std::log2(static_cast<double>(std::max<NodeId>(n, 2)));
  return std::min(1.0, gamma * log_n / (2.0 * static_cast<double>(c)));
}

CoreResult core_fast(congest::Network& net, const SpanningTree& tree,
                     const congest::PerNode<PartId>& active_part_of,
                     const CoreFastParams& params) {
  const NodeId n = net.num_nodes();
  LCS_CHECK(params.c >= 1, "congestion budget must be positive");
  LCS_CHECK(active_part_of.size() == static_cast<std::size_t>(n),
            "one part id per node required");

  // Phase 1: flood the shared-randomness seed from the root (O(D) rounds).
  const auto seeds = broadcast_word_from_root(net, tree, params.seed);

  const double p = core_fast_sampling_probability(n, params.c, params.gamma);
  const auto threshold = util::checked_trunc<std::int32_t>(
      std::max(1.0, std::ceil(4.0 * static_cast<double>(params.c) * p)));

  // Phase 2: stream sampled ids bottom-up to find the unusable edges.
  // Every node derives its part's coin from the seed it received — shared
  // randomness without further communication.
  congest::PerNode<PartId> sampled(static_cast<std::size_t>(n), kNoPart);
  for (std::size_t v = 0; v < sampled.size(); ++v) {
    const PartId j = active_part_of[v];
    if (j != kNoPart &&
        hash_coin(seeds[v], static_cast<std::uint64_t>(j), p))
      sampled[v] = j;
  }
  IdStream stream =
      stream_ids_up(tree, sampled, threshold, net.graph().num_edges());
  net.add_replayed(stream.stats);

  // Phase 3: route all ids up to their first unusable edge. It rewrites
  // every usable tree edge's list; the stream left the others empty.
  CoreResult result;
  result.shortcut.parts_on_edge = std::move(stream.parts_on_edge);
  net.add_replayed(route_all(tree, active_part_of, stream.unusable,
                             result.shortcut.parts_on_edge));
  return result;
}

}  // namespace lcs
