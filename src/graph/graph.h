/// \file graph.h
/// Immutable undirected graph used as the network topology for the
/// CONGEST simulator and by all centralized reference algorithms.
///
/// Design notes:
///  * Nodes are dense ids `0..n-1`, edges dense ids `0..m-1`; adjacency is
///    stored CSR-style so `neighbors(v)` is a contiguous `std::span`.
///  * Edges carry integer weights. All weight comparisons in this library
///    are lexicographic on (weight, edge id), which makes the minimum
///    spanning tree unique and lets distributed results be compared
///    bit-for-bit against the centralized reference.
///  * The graph is immutable after construction; algorithms that "grow"
///    structure (trees, shortcuts, partitions) layer their own state on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>
#include "util/cast.h"

namespace lcs {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using Weight = std::uint64_t;

inline constexpr NodeId kNoNode = -1;
inline constexpr EdgeId kNoEdge = -1;

class Graph {
 public:
  /// An undirected edge. `u < v` is not required on input; the constructor
  /// normalizes endpoints so that `u <= v`.
  struct Edge {
    NodeId u = kNoNode;
    NodeId v = kNoNode;
    Weight w = 1;
  };

  /// One adjacency entry: the neighbor and the id of the connecting edge.
  struct Neighbor {
    NodeId node = kNoNode;
    EdgeId edge = kNoEdge;
  };

  /// Builds a graph over `num_nodes` nodes. Requirements (checked):
  /// endpoints in range, no self-loops, no parallel edges.
  Graph(NodeId num_nodes, std::vector<Edge> edges);

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return util::checked_cast<EdgeId>(edges_.size()); }

  const Edge& edge(EdgeId e) const;
  std::span<const Neighbor> neighbors(NodeId v) const;
  NodeId degree(NodeId v) const;
  /// Position of `neighbors(v)[0]` in the flat adjacency of all nodes
  /// (node-major, 2m entries), so an array with one entry per adjacency
  /// entry can be stored flat: v's k-th entry is at `adjacency_offset(v) + k`.
  std::size_t adjacency_offset(NodeId v) const;

  /// The endpoint of `e` that is not `v`. Requires `v` to be an endpoint.
  NodeId other_endpoint(EdgeId e, NodeId v) const;

  /// Comparison key making all edge weights distinct: (weight, edge id).
  /// The minimum spanning tree under this order is unique.
  std::pair<Weight, EdgeId> weight_key(EdgeId e) const {
    return {edges_[static_cast<std::size_t>(e)].w, e};
  }

  /// Sum of all edge weights (useful for sanity checks in tests).
  Weight total_weight() const;

 private:
  NodeId num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::vector<Neighbor> adjacency_;     // CSR payload
  std::vector<std::int64_t> offsets_;   // CSR offsets, size n+1
};

}  // namespace lcs
