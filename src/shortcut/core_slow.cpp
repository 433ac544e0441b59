#include "shortcut/core_slow.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/check.h"

namespace lcs {

IdStream stream_ids_up(const SpanningTree& tree,
                       const congest::PerNode<PartId>& own,
                       std::int64_t limit, EdgeId num_edges) {
  const std::size_t n = tree.depth.size();
  LCS_CHECK(own.size() == n, "one part id per node required");
  IdStream out;
  out.parts_on_edge.resize(static_cast<std::size_t>(num_edges));
  out.unusable.assign(n, false);
  // Per node: the round it starts streaming, one after its last child's
  // end marker (-1, the start, for a leaf).
  std::vector<std::int64_t> start(n, -1);
  std::vector<PartId> ids;  // scratch: one node's distinct ids
  std::int64_t latest = -1;
  std::int64_t messages = 0;
  for (auto it = tree.by_depth.rbegin(); it != tree.by_depth.rend(); ++it) {
    const auto i = static_cast<std::size_t>(*it);
    const EdgeId pe = tree.parent_edge[i];
    if (pe == kNoEdge) continue;  // the tree root informs no one
    ids.clear();
    if (own[i] != kNoPart) ids.push_back(own[i]);
    for (const EdgeId ce : tree.children_edges[i]) {
      const auto& below = out.parts_on_edge[static_cast<std::size_t>(ce)];
      ids.insert(ids.end(), below.begin(), below.end());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

    // The ids (on a usable edge), one per round, then the end marker.
    std::int64_t end_marker = start[i];
    if (static_cast<std::int64_t>(ids.size()) >= limit) {
      out.unusable[i] = true;
    } else {
      end_marker += static_cast<std::int64_t>(ids.size());
      messages += static_cast<std::int64_t>(ids.size());
      out.parts_on_edge[static_cast<std::size_t>(pe)] = ids;
    }
    ++messages;
    latest = std::max(latest, end_marker);
    std::int64_t& parent_start =
        start[static_cast<std::size_t>(tree.parent[i])];
    parent_start = std::max(parent_start, end_marker + 1);
  }
  out.stats = cast_stats(latest, messages);
  return out;
}

CoreResult core_slow(congest::Network& net, const SpanningTree& tree,
                     const congest::PerNode<PartId>& active_part_of,
                     std::int32_t c) {
  LCS_CHECK(c >= 1, "congestion budget must be positive");
  return core_slow_threshold(net, tree, active_part_of, 2 * c);
}

CoreResult core_slow_threshold(congest::Network& net, const SpanningTree& tree,
                               const congest::PerNode<PartId>& active_part_of,
                               std::int32_t threshold) {
  LCS_CHECK(threshold >= 1, "threshold must be positive");
  LCS_CHECK(active_part_of.size() == static_cast<std::size_t>(net.num_nodes()),
            "one part id per node required");
  // An edge stays usable with at most `threshold` distinct ids.
  IdStream stream = stream_ids_up(tree, active_part_of,
                                  std::int64_t{threshold} + 1,
                                  net.graph().num_edges());
  net.add_replayed(stream.stats);
  CoreResult result;
  result.shortcut.parts_on_edge = std::move(stream.parts_on_edge);
  return result;
}

}  // namespace lcs
