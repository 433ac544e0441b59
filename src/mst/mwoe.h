/// \file mwoe.h
/// Minimum-weight-outgoing-edge plumbing shared by all Boruvka variants.
///
/// Every Boruvka phase finds its candidates the same way: nodes exchange
/// fragment ids with their neighbors (one round; the shortcut variants do it
/// after building the phase's shortcut), then each node computes the cheapest
/// incident edge leaving its fragment, encoded as one word so that the
/// minimum over a fragment can be computed with any min-aggregation:
///     packed = (weight << 32) | edge id          (kNoValue = no candidate)
/// Weight keys are compared lexicographically by (weight, edge id) — the
/// same order as the centralized Kruskal reference — so the fragment MWOE
/// is unique and the distributed result is reproducible bit for bit.
#pragma once

#include <limits>

#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/superstep.h"

namespace lcs {

inline constexpr std::uint64_t kNoCandidate =
    std::numeric_limits<std::uint64_t>::max();

/// Pack an MWOE candidate. Requires w < 2^32 and e < 2^31 (checked).
std::uint64_t pack_candidate(Weight w, EdgeId e);
Weight candidate_weight(std::uint64_t packed);
EdgeId candidate_edge(std::uint64_t packed);

/// Local step of every Boruvka phase: given each node's fragment id and the
/// fragments of its neighbors (from exchange_neighbor_parts on the fragment
/// partition), return each node's packed candidate (kNoCandidate if none).
/// Purely local — zero rounds.
congest::PerNode<std::uint64_t> local_mwoe_candidates(
    const Graph& g, const Partition& fragments,
    const NeighborParts& neighbor_parts);

/// Result of any distributed MST run.
struct DistributedMst {
  std::vector<EdgeId> edges;  ///< sorted MST edge ids
  Weight total_weight = 0;
  std::int32_t phases = 0;     ///< Boruvka phases executed
  std::int64_t rounds = 0;     ///< CONGEST rounds consumed by the run
};

/// Shared-randomness head/tail coin for star merges (Lemma 4): any node
/// that knows (seed, fragment id, phase) computes the same coin.
bool is_head(std::uint64_t seed, PartId fragment, std::int32_t phase);

}  // namespace lcs
