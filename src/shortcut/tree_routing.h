/// \file tree_routing.h
/// Pipelined routing on families of subtrees — the paper's Lemma 2.
///
/// Setting: a rooted spanning tree `T` of depth `D` and a family of subtrees
/// such that every tree edge lies in at most `c` subtrees. In our encoding a
/// subtree is a *block component*: a maximal connected set of tree edges
/// carrying the same part id (`Shortcut::parts_on_edge`). Lemma 2 says a
/// convergecast or broadcast on *all* subtrees in parallel finishes in
/// `O(D + c)` rounds when messages over a contested edge are prioritized by
/// (depth of the subtree root, subtree id).
///
/// The per-node routing knowledge of one shortcut is built once into a
/// `ComponentPlan` (flat per-node slices, see below) and shared by every
/// phase that routes on that shortcut. Two one-phase engines run on it:
///  * `run_component_broadcast` — each component root injects one word; it
///    is delivered to every node of the component. Messages carry the root
///    depth, so the Lemma 2 priority is available on arrival (this is also
///    how the plan's parent-edge root depths, part of the "distributed
///    representation", are computed in the first place).
///  * `run_component_convergecast` — every node of a component contributes
///    one word; an associative, commutative combiner folds them toward the
///    component root. Upward priorities use the parent-edge root depths the
///    representation broadcast wrote into the plan (see representation.h).
///
/// Nodes only consult local data: their own plan slices (the ids on their
/// incident tree edges and the per-edge priorities), and callbacks that
/// read/write their own node's slot. A phase's protocol state lives in flat
/// buffers sized from the plan; node v touches only its own slices, and each
/// child-edge queue has a single writer, the edge's upper endpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// How contested edges order their pending messages (Lemma 2 uses
/// kRootDepth; the alternatives exist for the ablation bench A3).
enum class RoutingPriority {
  kRootDepth,  ///< (subtree-root depth, part id) — the paper's rule
  kPartId,     ///< (part id) only
  kFifo,       ///< arrival order
};

/// What each node knows about the block components through it, for one
/// shortcut on one tree (Section 4.1's distributed representation).
///
/// The arrays are CSR over nodes — node v's entries of `X` are
/// `X[X_off[v] .. X_off[v + 1])` — except `queue_part`, which is CSR over
/// `child_edge`. Protocols for node v read only v's entries.
struct ComponentPlan {
  /// One per part on an edge incident to the node.
  struct Slot {
    PartId part = kNoPart;
    /// Child edges of the node that carry `part`.
    std::int32_t expected = 0;
    /// Depth of `part`'s component root, as recorded on the node's parent
    /// edge: set on parent-edge slots by the representation broadcast, -1
    /// on the others.
    std::int32_t parent_root_depth = -1;
    /// `part` rides the node's parent edge (else the node roots it).
    bool has_parent = false;
  };

  /// The node's child edges, ascending EdgeId (the per-round flush order).
  std::vector<std::size_t> child_off;
  std::vector<EdgeId> child_edge;
  /// Aligned with `child_edge` plus one: child edge k's parts, ascending,
  /// are `queue_part[queue_off[k] .. queue_off[k + 1])`; a broadcast queues
  /// at most one message per part, so the same range is that edge's queue.
  std::vector<std::size_t> queue_off;
  std::vector<PartId> queue_part;
  /// One slot per incident part, ascending by part. The slots without a
  /// parent edge are the components rooted at the node.
  std::vector<std::size_t> slot_off;
  std::vector<Slot> slots;
  /// Set once every parent-edge slot holds its root depth (see
  /// representation.h); the convergecast requires it.
  bool has_root_depths = false;

  /// Index in `slots` of v's slot for part j (a flat key for per-slot
  /// state), or `slots.size()` if v has none.
  std::size_t slot_index(NodeId v, PartId j) const;
};

/// Build the plan (child edges and their parts, slots without root depths)
/// for `shortcut` on `tree`. Purely local knowledge: node v's slices come
/// from the ids on its own incident tree edges.
ComponentPlan make_component_plan(const SpanningTree& tree,
                                  const Shortcut& shortcut);

/// Broadcast one word from every block-component root to all nodes of that
/// component.
///
/// `root_value(v, j)` is invoked once per component rooted at node `v` with
/// part id `j` and returns the word to broadcast. `on_receive(v, j, value,
/// root_depth)` fires at every node of the component, including the root
/// itself. Returns the phase stats (rounds, messages).
congest::PhaseStats run_component_broadcast(
    congest::Network& net, const SpanningTree& tree, const ComponentPlan& plan,
    const std::function<std::uint64_t(NodeId root, PartId j)>& root_value,
    const std::function<void(NodeId v, PartId j, std::uint64_t value,
                             std::int32_t root_depth)>& on_receive,
    RoutingPriority priority = RoutingPriority::kRootDepth);

/// Convergecast one word from every node of each block component to the
/// component root.
///
/// `contribution(v, j)` is invoked once per node per incident component and
/// returns the word that node feeds in. `combine` must be associative and
/// commutative. `on_root_result(v, j, agg)` fires at each component root.
/// The plan must carry root depths (`has_root_depths`).
congest::PhaseStats run_component_convergecast(
    congest::Network& net, const SpanningTree& tree, const ComponentPlan& plan,
    const std::function<std::uint64_t(NodeId v, PartId j)>& contribution,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine,
    const std::function<void(NodeId root, PartId j, std::uint64_t agg)>&
        on_root_result,
    RoutingPriority priority = RoutingPriority::kRootDepth);

}  // namespace lcs
