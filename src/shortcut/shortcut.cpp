#include "shortcut/shortcut.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "graph/graph.h"
#include "graph/metrics.h"
#include "graph/partition.h"
#include "graph/union_find.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

bool Shortcut::edge_used_by(EdgeId e, PartId i) const {
  const auto& list = parts_on_edge[static_cast<std::size_t>(e)];
  return std::binary_search(list.begin(), list.end(), i);
}

std::vector<std::vector<EdgeId>> Shortcut::edges_of_parts(
    PartId num_parts) const {
  std::vector<std::vector<EdgeId>> result(static_cast<std::size_t>(num_parts));
  for (EdgeId e = 0; e < util::checked_cast<EdgeId>(parts_on_edge.size()); ++e) {
    for (const PartId i : parts_on_edge[static_cast<std::size_t>(e)])
      result[static_cast<std::size_t>(i)].push_back(e);
  }
  return result;
}

void validate_shortcut(const Graph& g, const SpanningTree& tree,
                       const Partition& p, const Shortcut& s) {
  LCS_CHECK(s.parts_on_edge.size() == static_cast<std::size_t>(g.num_edges()),
            "shortcut must cover every edge id");
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& list = s.parts_on_edge[static_cast<std::size_t>(e)];
    if (!list.empty())
      LCS_CHECK(tree.is_tree_edge(e),
                "T-restriction violated: non-tree edge assigned");
    LCS_CHECK(std::is_sorted(list.begin(), list.end()) &&
                  std::adjacent_find(list.begin(), list.end()) == list.end(),
              "part lists must be strictly increasing");
    for (const PartId i : list)
      LCS_CHECK(i >= 0 && i < p.num_parts, "part id out of range");
  }
}

std::int32_t congestion(const Graph& g, const Partition& p,
                        const Shortcut& s) {
  std::int32_t worst = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& list = s.parts_on_edge[static_cast<std::size_t>(e)];
    auto count = util::checked_cast<std::int32_t>(list.size());
    const auto& ed = g.edge(e);
    const PartId pu = p.part(ed.u);
    // e ∈ G[Pi] iff both endpoints belong to the same part i.
    if (pu != kNoPart && pu == p.part(ed.v) &&
        !std::binary_search(list.begin(), list.end(), pu)) {
      ++count;
    }
    worst = std::max(worst, count);
  }
  return worst;
}

namespace {

/// Involved nodes of part i (Pi members plus Hi endpoints), sorted unique,
/// and Hi's edge list.
struct PartView {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> shortcut_edges;
  std::vector<NodeId> members;
};

PartView make_part_view(const Graph& g, const std::vector<NodeId>& members,
                        const std::vector<EdgeId>& shortcut_edges) {
  PartView view;
  view.members = members;
  view.shortcut_edges = shortcut_edges;
  view.nodes = members;
  for (const EdgeId e : shortcut_edges) {
    view.nodes.push_back(g.edge(e).u);
    view.nodes.push_back(g.edge(e).v);
  }
  std::sort(view.nodes.begin(), view.nodes.end());
  view.nodes.erase(std::unique(view.nodes.begin(), view.nodes.end()),
                   view.nodes.end());
  return view;
}

std::size_t local_index(const std::vector<NodeId>& sorted_nodes, NodeId v) {
  const auto it =
      std::lower_bound(sorted_nodes.begin(), sorted_nodes.end(), v);
  LCS_CHECK(it != sorted_nodes.end() && *it == v, "node not in part view");
  return static_cast<std::size_t>(it - sorted_nodes.begin());
}

std::int32_t count_block_components(const Graph& g, const PartView& view) {
  UnionFind uf(view.nodes.size());
  for (const EdgeId e : view.shortcut_edges) {
    uf.unite(local_index(view.nodes, g.edge(e).u),
             local_index(view.nodes, g.edge(e).v));
  }
  // Count distinct components that contain a member of Pi.
  std::vector<std::size_t> roots;
  roots.reserve(view.members.size());
  for (const NodeId v : view.members)
    roots.push_back(uf.find(local_index(view.nodes, v)));
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return util::checked_cast<std::int32_t>(roots.size());
}

constexpr std::int32_t kInfiniteDiameter =
    std::numeric_limits<std::int32_t>::max();

/// Max over parts of `diameter` on G[Pi] + Hi (Definition 1), or
/// kInfiniteDiameter if some part's subgraph is disconnected. A part with
/// no node (no member, no shortcut edge) is skipped.
std::int32_t max_part_subgraph_diameter(
    const Graph& g, const Partition& p, const Shortcut& s,
    std::int32_t (*diameter)(const Graph&)) {
  const auto groups = p.members();
  const auto edges = s.edges_of_parts(p.num_parts);
  std::int32_t worst = 0;
  for (PartId i = 0; i < p.num_parts; ++i) {
    const auto view =
        make_part_view(g, groups[static_cast<std::size_t>(i)],
                       edges[static_cast<std::size_t>(i)]);
    if (view.nodes.empty()) continue;
    // Hi's edges, then each G[Pi] edge from its lower endpoint.
    std::vector<EdgeId> subgraph_edges = view.shortcut_edges;
    for (const NodeId v : view.members) {
      for (const auto& nb : g.neighbors(v))
        if (v < nb.node && p.part(nb.node) == i)
          subgraph_edges.push_back(nb.edge);
    }
    const Graph sub = subgraph(g, view.nodes, std::move(subgraph_edges));
    if (!is_connected(sub)) return kInfiniteDiameter;
    worst = std::max(worst, diameter(sub));
  }
  return worst;
}

}  // namespace

std::int32_t block_component_count(const Graph& g, const Partition& p,
                                   const Shortcut& s, PartId i) {
  LCS_CHECK(i >= 0 && i < p.num_parts, "part id out of range");
  const auto groups = p.members();
  const auto edges = s.edges_of_parts(p.num_parts);
  const auto view =
      make_part_view(g, groups[static_cast<std::size_t>(i)],
                     edges[static_cast<std::size_t>(i)]);
  return count_block_components(g, view);
}

std::int32_t block_parameter(const Graph& g, const Partition& p,
                             const Shortcut& s) {
  const auto groups = p.members();
  const auto edges = s.edges_of_parts(p.num_parts);
  std::int32_t worst = 0;
  for (PartId i = 0; i < p.num_parts; ++i) {
    const auto view =
        make_part_view(g, groups[static_cast<std::size_t>(i)],
                       edges[static_cast<std::size_t>(i)]);
    worst = std::max(worst, count_block_components(g, view));
  }
  return worst;
}

std::int32_t dilation(const Graph& g, const Partition& p, const Shortcut& s) {
  return max_part_subgraph_diameter(g, p, s, diameter_exact);
}

std::int32_t dilation_estimate(const Graph& g, const Partition& p,
                               const Shortcut& s) {
  return max_part_subgraph_diameter(g, p, s, diameter_double_sweep);
}

std::int64_t lemma1_dilation_bound(const SpanningTree& tree, std::int32_t b) {
  return static_cast<std::int64_t>(b) * (2 * tree.height + 1);
}

}  // namespace lcs
