/// \file shortcut.h
/// Tree-restricted low-congestion shortcuts: types and quality measures.
///
/// Paper correspondence:
///  * Definition 1 — a shortcut assigns each part `Pi` an edge set `Hi`;
///    *congestion* bounds how many subgraphs `G[Pi] + Hi` contain any edge,
///    *dilation* bounds the diameter of every `G[Pi] + Hi`.
///  * Definition 2 — `T`-restricted: every `Hi` uses only edges of a fixed
///    rooted spanning tree `T`.
///  * Definition 3 — the *block parameter* `b`: an upper bound on the number
///    of connected components of `(V, Hi)` that intersect `Pi` ("block
///    components"; each is a subtree of `T`). Isolated `Pi` nodes count.
///  * Lemma 1 — block parameter `b` implies dilation at most `b(2D+1)`.
///
/// Representation: per tree edge, the sorted list of parts whose `Hi`
/// contains it. This matches the paper's distributed representation ("each
/// node knows all the part IDs that can use its parent edge") and makes the
/// congestion measure immediate.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct Shortcut {
  /// parts_on_edge[e]: parts i with e ∈ Hi, strictly increasing.
  /// Non-tree edges must have empty lists (T-restriction).
  std::vector<std::vector<PartId>> parts_on_edge;

  /// True if tree edge `e` belongs to Hi for part `i`.
  bool edge_used_by(EdgeId e, PartId i) const;

  /// Hi as an edge list, for all parts (index = part id).
  std::vector<std::vector<EdgeId>> edges_of_parts(PartId num_parts) const;
};

/// Throws unless `s` is a well-formed T-restricted shortcut for (g, tree, p):
/// lists sorted/unique/in-range and only on tree edges.
void validate_shortcut(const Graph& g, const SpanningTree& tree,
                       const Partition& p, const Shortcut& s);

/// Exact congestion per Definition 1: max over edges e of the number of
/// distinct parts i with e ∈ G[Pi] + Hi. Counts the part that owns both
/// endpoints of e even when e is not in Hi.
std::int32_t congestion(const Graph& g, const Partition& p, const Shortcut& s);

/// Number of block components of part `i` (Definition 3): components of
/// (V, Hi) that contain at least one node of Pi. Isolated Pi nodes count as
/// singleton components.
std::int32_t block_component_count(const Graph& g, const Partition& p,
                                   const Shortcut& s, PartId i);

/// Block parameter: max over parts of block_component_count.
std::int32_t block_parameter(const Graph& g, const Partition& p,
                             const Shortcut& s);

/// Exact dilation per Definition 1: max over parts of the diameter of
/// G[Pi] + Hi (graph/metrics' `diameter_exact` on its `subgraph`), or
/// INT32_MAX if some G[Pi] + Hi is disconnected. O(sum over parts of
/// |subgraph| * BFS) — use on test-sized inputs; see dilation_estimate for
/// large ones.
std::int32_t dilation(const Graph& g, const Partition& p, const Shortcut& s);

/// Double-sweep lower bound of the dilation (exact on trees): the same
/// subgraphs, measured by `diameter_double_sweep`. O(m) per part.
std::int32_t dilation_estimate(const Graph& g, const Partition& p,
                               const Shortcut& s);

/// Lemma 1 bound: b(2D+1) where D = tree height. Tests assert
/// dilation <= lemma1_dilation_bound.
std::int64_t lemma1_dilation_bound(const SpanningTree& tree, std::int32_t b);

}  // namespace lcs
