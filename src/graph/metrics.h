/// \file metrics.h
/// Centralized graph measurements: BFS distances, diameters, connectivity,
/// and the subgraphs they measure parts on. These are *reference*
/// computations used to validate the distributed algorithms, to report
/// workload parameters (D, part diameters) in the benches, and to measure
/// a shortcut's dilation (`dilation` and `dilation_estimate` in
/// shortcut/shortcut.h measure each part's G[Pi] + Hi here) — they are not
/// part of any protocol.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"

namespace lcs {

/// Hop distances from `src`; -1 for unreachable nodes.
std::vector<std::int32_t> bfs_distances(const Graph& g, NodeId src);

bool is_connected(const Graph& g);

/// Exact hop diameter by n BFS sweeps. O(n·m): use for n up to ~10⁴.
std::int32_t diameter_exact(const Graph& g);

/// Double-sweep lower bound on the diameter; exact on trees, within 2x
/// always. O(m). Use to report D on large instances.
std::int32_t diameter_double_sweep(const Graph& g);

/// The subgraph of `g` on `nodes` and `edges`: the distinct nodes in
/// ascending order, renumbered 0..k-1, and each distinct edge once, with
/// its weight. Every edge's endpoints must be among `nodes`.
Graph subgraph(const Graph& g, std::vector<NodeId> nodes,
               std::vector<EdgeId> edges);

/// Exact diameter of the subgraph induced by part `i`. O(n + |Pi|·m(Pi)).
/// Throws if the part has no members or is not connected.
std::int32_t part_diameter_exact(const Graph& g, const Partition& p, PartId i);

/// Max over all parts of the exact induced diameter, with the same errors.
/// Lists every part's members in one pass: O(n + Σ |Pi|·m(Pi)).
std::int32_t max_part_diameter(const Graph& g, const Partition& p);

}  // namespace lcs
