/// \file tree_ops.h
/// Small whole-tree primitives used by the construction framework:
///
///  * `broadcast_word_from_root` — the root floods one word down the tree in
///    O(D) rounds. Used to distribute the shared-randomness seed (the paper
///    shares O(log² n) random bits in O(D + log n) rounds; our protocols
///    need one 64-bit word, which fits a single message).
///  * `global_or` — an OR-convergecast up the tree followed by a broadcast
///    of the result, O(D) rounds. FindShortcut uses it as the "are any
///    parts still unfinished?" termination check ("the check can be
///    executed via a O(D) convergecast on the entire tree T", Section 5.2).
///
/// Both are counted on the host, not simulated: their schedules are fixed
/// by the tree alone, never by the words they carry. The flood sends one
/// message down each tree edge, and a node at depth d receives it in the
/// d-th round: `height` rounds and n − 1 messages. The OR sends one message
/// up each tree edge once every child has reported, then one down. A node
/// reports one round after its deepest child, so the root has every report
/// after `height` rounds, and the result reaches the deepest node `height`
/// rounds later: 2·height rounds and 2(n − 1) messages. Both are zero on a
/// one-node tree. `tests/tree_ops_test.cpp` keeps the engine protocols
/// these counts replace and checks one against the other.
#pragma once

#include "congest/network.h"
#include "congest/process.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// Flood `word` (known to the tree root) down all tree edges; returns the
/// word as received by every node. `height` rounds, n − 1 messages.
congest::PerNode<std::uint64_t> broadcast_word_from_root(
    congest::Network& net, const SpanningTree& tree, std::uint64_t word);

/// OR of the per-node bits, computed by convergecast + broadcast on the
/// tree so that *every node* learns the result. 2·height rounds,
/// 2(n − 1) messages.
bool global_or(congest::Network& net, const SpanningTree& tree,
               const congest::PerNode<bool>& bits);

}  // namespace lcs
