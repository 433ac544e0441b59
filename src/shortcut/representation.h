/// \file representation.h
/// The "distributed representation" of a computed shortcut (Section 4.1):
/// after construction, each node must know (i) its own and its neighbors'
/// T-depths, (ii) which incident edges are tree edges, and (iii) the part
/// ids that may use its parent edge *along with the depth (and identity) of
/// their block-component roots*.
///
/// (i) and (ii) come from the BFS phase. This module computes (iii) with a
/// single component-broadcast (Lemma 2): every block-component root — a node
/// that sees a part id on a child edge but not on its parent edge — floods
/// (root id, root depth) down its component. The root id doubles as a
/// *block id*, unique within each part, which verification and part routing
/// rely on.
///
/// That knowledge, flattened per node, is the shortcut's `ComponentPlan`
/// (tree_routing.h): built here before the broadcast, which runs on it and
/// writes each parent-edge slot's root depth, and reused by every superstep
/// that routes on the shortcut, together with the broadcast's `PhaseStats`,
/// which every superstep's broadcast on the plan repeats.
#pragma once

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// A shortcut plus the per-node knowledge required to route on it.
struct ShortcutState {
  Shortcut shortcut;

  /// For each node v in a part: the block id (component root) of v's own
  /// component. Nodes with no incident own-part shortcut edge form
  /// singleton components rooted at themselves. kNoNode for nodes outside
  /// every part.
  congest::PerNode<NodeId> own_block_root;

  /// The routing plan of `shortcut` on the tree, root depths included. A
  /// part member is a singleton exactly when it has no slot for its part.
  ComponentPlan plan;

  /// The rounds and messages of the representation broadcast on `plan`.
  /// A broadcast's sends on a plan depend only on the plan, the part ids
  /// and the root depths, never on the words, so this is every later
  /// broadcast's cost on the same plan: the superstep runner
  /// (superstep.h) adds it instead of simulating the broadcast again.
  congest::PhaseStats broadcast;
};

/// Run the representation phase for `shortcut` (rounds accounted in `net`)
/// and bundle the results. The shortcut must be valid for (tree, partition).
ShortcutState compute_shortcut_state(congest::Network& net,
                                     const SpanningTree& tree,
                                     const Partition& partition,
                                     Shortcut shortcut);

}  // namespace lcs
