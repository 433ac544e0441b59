#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "util/cast.h"
#include "util/check.h"

namespace lcs {

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {
  LCS_CHECK(num_nodes_ >= 0, "negative node count");
  for (auto& e : edges_) {
    LCS_CHECK(e.u >= 0 && e.u < num_nodes_ && e.v >= 0 && e.v < num_nodes_,
              "edge endpoint out of range");
    LCS_CHECK(e.u != e.v, "self-loops are not allowed");
    if (e.u > e.v) std::swap(e.u, e.v);
  }

  // Reject parallel edges: sort a copy of endpoint pairs and scan.
  {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(edges_.size());
    for (const auto& e : edges_) pairs.emplace_back(e.u, e.v);
    std::sort(pairs.begin(), pairs.end());
    const auto dup = std::adjacent_find(pairs.begin(), pairs.end());
    LCS_CHECK(dup == pairs.end(), "parallel edges are not allowed");
  }

  // CSR construction (counting sort by endpoint).
  offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const auto& e : edges_) {
    ++offsets_[static_cast<std::size_t>(e.u) + 1];
    ++offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  adjacency_.resize(static_cast<std::size_t>(offsets_.back()));
  std::vector<std::int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId id = 0; id < num_edges(); ++id) {
    const auto& e = edges_[static_cast<std::size_t>(id)];
    adjacency_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++)] =
        Neighbor{e.v, id};
    adjacency_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++)] =
        Neighbor{e.u, id};
  }
}

const Graph::Edge& Graph::edge(EdgeId e) const {
  LCS_CHECK(e >= 0 && e < num_edges(), "edge id out of range");
  return edges_[static_cast<std::size_t>(e)];
}

std::span<const Graph::Neighbor> Graph::neighbors(NodeId v) const {
  LCS_CHECK(v >= 0 && v < num_nodes_, "node id out of range");
  const auto begin = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
  const auto end = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
  return {adjacency_.data() + begin, end - begin};
}

std::size_t Graph::adjacency_offset(NodeId v) const {
  LCS_CHECK(v >= 0 && v < num_nodes_, "node id out of range");
  return static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
}

NodeId Graph::degree(NodeId v) const {
  return util::checked_cast<NodeId>(neighbors(v).size());
}

NodeId Graph::other_endpoint(EdgeId e, NodeId v) const {
  const Edge& ed = edge(e);
  LCS_CHECK(ed.u == v || ed.v == v, "node is not an endpoint of edge");
  return ed.u == v ? ed.v : ed.u;
}

Weight Graph::total_weight() const {
  Weight total = 0;
  for (const auto& e : edges_) total += e.w;
  return total;
}

}  // namespace lcs
