/// \file verification.h
/// The Verification subroutine (Lemmas 3 and 6): given a tentative
/// T-restricted shortcut, decide *for every part in parallel* whether its
/// shortcut subgraph has at most `b_limit` block components, in
/// O(b_limit · (D + c)) rounds.
///
/// Following the paper's proof, each part's subgraph is treated as a
/// supergraph of block components (supernodes):
///  1. every supernode floods the minimum block id for `b_limit` supersteps
///     and keeps the smallest seen (candidate leader);
///  2. supernodes that believe themselves leader grow a BFS tree over the
///     supergraph (distance relaxation for `b_limit` supersteps);
///  3. each non-root supernode picks one boundary edge to its BFS parent,
///     and supernode counts are accumulated root-ward, deepest level first;
///  4. the root's verdict (count ≤ b_limit and no anomaly) floods back.
///
/// Anomalies — two adjacent supernodes with different leaders (the paper's
/// "two neighboring supernodes in different BFS trees"), or a reached
/// supernode adjacent to an unreached one — raise flags that saturate the
/// count, so a part passes only if its supergraph really has a single
/// leader, a complete BFS, and at most `b_limit` supernodes. Every member
/// of a part reaches the same verdict (checked).
///
/// The phases keep one value per supernode on the runner's supergraph
/// (superstep.h); only the anomaly flags are kept per node.
///
/// Every loop is charged all of its supersteps, as the paper counts them,
/// but not all of them run: the floods (1, 2 and 4) stop at their fixed
/// point, and step 3 skips the levels above the deepest BFS depth. Those
/// supersteps are charged as copies (superstep.h, "Fixed-point repeats").
#pragma once

#include "congest/network.h"
#include "congest/process.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct VerificationResult {
  /// Verdict at each node for its own part (false for part-less nodes).
  congest::PerNode<bool> node_good;
  /// Part-level verdicts, derived from the (unanimous) member verdicts.
  /// Parts with no members are reported as false.
  std::vector<bool> part_good;
};

/// Run Verification with block budget `b_limit` >= 1. `partition` may leave
/// nodes unassigned; `state` must be the representation of the tentative
/// shortcut under the same partition.
VerificationResult verify_block_parameter(congest::Network& net,
                                          const SpanningTree& tree,
                                          const Partition& partition,
                                          const ShortcutState& state,
                                          std::int32_t b_limit,
                                          const NeighborParts& neighbor_parts);

/// The same Verification on a runner the caller built on `state` (and on
/// the partition, tree and neighbor parts above), so that the caller keeps
/// the runner afterwards: FindShortcut hands it on (find_shortcut.h).
VerificationResult verify_block_parameter(SuperstepRunner& runner,
                                          const ShortcutState& state,
                                          std::int32_t b_limit);

}  // namespace lcs
