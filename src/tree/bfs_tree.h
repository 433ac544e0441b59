/// \file bfs_tree.h
/// Distributed BFS-tree construction — the standard O(D)-round CONGEST
/// subroutine the paper builds on ("Computing a BFS tree T ... is a standard
/// subroutine and can be computed in O(D) rounds", Section 5.2).
///
/// Protocol: the root floods EXPLORE; on its first EXPLOREs a node adopts
/// one sender as parent, replies ACCEPT to it and REJECT to the others,
/// explores every neighbor that did not explore it, and rejects later
/// explorers. Echo termination: a node reports DONE to its parent once
/// every neighbor it explored has replied and every accepting child has
/// reported DONE, so the phase quiesces after O(D) rounds with every node
/// knowing its parent, depth, children, and its neighbors' depths.
///
/// The graph and the root fix the protocol's tree, rounds and messages, so
/// `build_bfs_tree` counts them on the host and charges them with one
/// `Network::add_replayed`; no engine phase runs. With d a node's depth
/// (its hop distance from the root) and the root's EXPLOREs sent in round
/// −1, so that a node at depth d adopts in round d − 1:
///
///  * **Parent.** A node at depth d takes as parent the smallest edge id
///    among its neighbors at depth d − 1: all of them explore it in the
///    same round.
///  * **Children.** A node's children are listed in ascending child id,
///    the order their ACCEPTs arrive.
///  * **Messages.** 2(m + s) + n − 1, where s is the number of edges whose
///    endpoints have equal depth: every EXPLORE is answered once, an
///    equal-depth edge is explored from both ends, and each tree edge
///    carries one DONE.
///  * **Rounds.** 0 at n = 1. Otherwise max over non-root v of F(v) + 2,
///    where F(v) is the round v sends DONE:
///    F(v) = max(d + [v has a neighbor at depth ≥ d],
///               max over children c of F(c) + 1).
///    The last DONE is delivered in round max F(v) + 1; the root's own
///    replies, delivered in round 1, never outlast it.
///
/// The engine protocol itself is `testutil::reference_bfs` in
/// tests/engine_reference.h; tests/bfs_tree_test.cpp runs both on every
/// generated family and requires the same tree, rounds and messages.
#pragma once

#include "congest/network.h"
#include "graph/graph.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// The BFS protocol's tree rooted at `root` on `net`'s topology, with its
/// rounds and messages charged to `net` (see the file comment). The tree
/// passes `validate_spanning_tree`. Requires the graph to be connected.
SpanningTree build_bfs_tree(congest::Network& net, NodeId root);

}  // namespace lcs
