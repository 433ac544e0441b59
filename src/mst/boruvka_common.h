/// \file boruvka_common.h
/// The per-phase pieces every Boruvka variant shares once the fragment MWOE
/// is known at all fragment members (by whatever aggregation mechanism the
/// variant uses), the phase cap, and the one shortcut Boruvka loop that
/// MST (boruvka_shortcut.h) and the components app (apps/components.h)
/// both run.
///
/// Star merges (Lemma 4's trick): each fragment flips a shared-randomness
/// head/tail coin; a tail whose MWOE points at a head adopts the head's id.
/// Only tails move and heads never do, so merges never chain and the new
/// fragments stay connected. Every fragment's MWOE is recorded as an MST
/// edge immediately (the cut property holds whether or not the merge
/// happens this phase; with unique (weight, id) keys mutual MWOEs coincide,
/// so marked edges are exactly the eventual merge edges).
#pragma once

#include <functional>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "mst/mwoe.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// Phases a Boruvka run may take on n nodes before it is declared a bug:
/// 8·⌊log2 n⌋ + 20 (n < 2 counts as 2).
std::int32_t boruvka_phase_cap(NodeId n);

struct StarMergeStep {
  /// proposal[v] = head fragment id to adopt, at the MWOE owner of a
  /// merging tail fragment; kNoCandidate elsewhere. Broadcast it over the
  /// fragment (any min mechanism) and call apply_merges.
  congest::PerNode<std::uint64_t> proposals;
  /// has_outgoing[v]: this node's fragment had an MWOE (for termination).
  congest::PerNode<bool> has_outgoing;
};

/// Local decisions after the MWOE flood: identify each fragment's owner
/// (the in-fragment endpoint of the fragment MWOE), mark the MWOE into
/// `mst_edge`, and emit tail->head merge proposals. Zero rounds — all
/// inputs are node-local knowledge.
StarMergeStep star_merge_step(const Graph& g, const Partition& fragments,
                              const NeighborParts& neighbor_parts,
                              const congest::PerNode<std::uint64_t>& mwoe,
                              std::uint64_t seed, std::int32_t phase,
                              std::vector<bool>& mst_edge);

/// Adopt broadcast merge proposals: members of a tail fragment switch to
/// the head id. Returns the number of nodes that changed fragment.
std::int64_t apply_merges(Partition& fragments,
                          const congest::PerNode<std::uint64_t>& delivered);

/// Collect the marked MST edges into a DistributedMst (weight from `g`).
DistributedMst finish_mst(const Graph& g, const std::vector<bool>& mst_edge,
                          std::int32_t phases, std::int64_t rounds);

/// A phase's local candidate words: node v's packed candidate edge leaving
/// its fragment (kNoCandidate if none), from the fragments and the
/// neighbors' fragments. Zero rounds.
using CandidateRule = std::function<congest::PerNode<std::uint64_t>(
    const Partition& fragments, const NeighborParts& neighbor_parts)>;

/// What `shortcut_boruvka` leaves behind.
struct ShortcutBoruvkaRun {
  Partition fragments;         ///< the final fragments
  std::vector<bool> mst_edge;  ///< every phase's fragment MWOEs, by edge id
  std::int32_t phases = 0;
  std::int64_t rounds = 0;     ///< CONGEST rounds of the whole loop
};

/// Boruvka with fragment aggregation on tree-restricted shortcuts (Lemma 4).
/// Each phase:
///  1. a `PartAggregator` over the current fragments: FindShortcut with
///     Appendix-A doubling, seeded `hash64(seed, salt, phase)` and started
///     at `first_params`' (c, b) in phase 0 and at the previous phase's
///     successful (c, b) after that, then the one-round exchange of
///     fragment ids;
///  2. the fragment minimum of `candidates` (the MWOE), min-flooded over
///     the shortcut (Theorem 2);
///  3. star merges: MWOEs marked in `mst_edge`, tail->head proposals
///     broadcast on the aggregator's runner, then applied;
///  4. a tree OR (O(D) rounds): stop once no fragment has a candidate.
/// `seed` also drives the merge coins.
ShortcutBoruvkaRun shortcut_boruvka(congest::Network& net,
                                    const SpanningTree& tree,
                                    const CandidateRule& candidates,
                                    std::uint64_t seed, std::uint64_t salt,
                                    FindShortcutParams first_params);

}  // namespace lcs
