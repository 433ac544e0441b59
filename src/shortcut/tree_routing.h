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
/// cast that routes on that shortcut. Both casts are counted on the host,
/// never simulated on the engine:
///  * `broadcast_schedule` — each component root injects one word, which
///    reaches every node of the component. Messages carry the root depth,
///    so the Lemma 2 priority is available on arrival; the pass also yields
///    each slot's component root, which is how the plan's parent-edge root
///    depths (part of the "distributed representation", representation.h)
///    are learned in the first place.
///  * `convergecast_schedule` — every node of a component contributes one
///    word, folded toward the component root. Upward priorities use the
///    parent-edge root depths the representation broadcast wrote into the
///    plan.
///
/// ## The schedule
///
/// Each cast is a set of one-message-per-round queues on tree edges. A
/// node's sends depend only on the part ids and root depths on its tree
/// edges and on the rounds its items reach it, never on the words being
/// cast, so one pass over the tree gives every item's departure round:
/// shallowest nodes first for the broadcast (each node's queue on its
/// parent edge holds the words its parent forwards down), deepest first for
/// the convergecast (each node's queue on its parent edge holds its
/// components' partial aggregates).
///  * On every edge, each round, the released pending item with the
///    smallest key departs (`depart_by_key`).
///  * An item is released in the round its node learned it: -1 for what
///    the node knows at the start, else the round after the departure that
///    brought it (for a convergecast, the last of its children's).
///  * Keys: `kRootDepth` orders by (root depth, part), `kPartId` by part,
///    `kFifo` by (release, part).
///  * A cast sends one message per item and takes latest departure + 2
///    rounds — the start's sends are delivered in the first round, and the
///    last message arrives in the round after it departs — or 0 rounds if
///    nothing was sent (`cast_stats`).
///
/// `tests/engine_reference.h` keeps the engine protocols these passes
/// replace, and `tests/tree_routing_test.cpp` checks one against the other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
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
/// The slots are CSR over nodes — node v's slots are
/// `slots[slot_off[v] .. slot_off[v + 1])`. Protocols for node v read only
/// v's slots and, for a slot that rides v's parent edge, the parent's slot
/// of the same part: the slot at the other end of that edge.
struct ComponentPlan {
  /// `Slot::parent` of a slot whose node roots its component.
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();

  /// One per part on an edge incident to the node.
  struct Slot {
    PartId part = kNoPart;
    /// Depth of `part`'s component root, as recorded on the node's parent
    /// edge: set on parent-edge slots by the representation broadcast, -1
    /// on the others.
    std::int32_t parent_root_depth = -1;
    /// The tree parent's slot of the same part if `part` rides the node's
    /// parent edge, else kNoSlot (the node roots the component).
    std::size_t parent = kNoSlot;

    bool has_parent() const { return parent != kNoSlot; }
  };

  /// One slot per incident part, ascending by part. The slots without a
  /// parent edge are the components rooted at the node.
  std::vector<std::size_t> slot_off;
  std::vector<Slot> slots;
  /// The nodes with at least one slot, shallowest first, ties by id: their
  /// slot ranges in this order put every slot after its parent slot.
  std::vector<NodeId> by_depth;
  /// Set once every parent-edge slot holds its root depth (see
  /// representation.h); the kRootDepth convergecast requires it.
  bool has_root_depths = false;

  /// Index in `slots` of v's slot for part j (a flat key for per-slot
  /// state), or `slots.size()` if v has none.
  std::size_t slot_index(NodeId v, PartId j) const;
};

/// Build the plan (slots with their parent links, and the depth order; no
/// root depths) for `shortcut` on `tree`. Purely local knowledge: node v's
/// slots come from the ids on its own incident tree edges.
ComponentPlan make_component_plan(const SpanningTree& tree,
                                  const Shortcut& shortcut);

/// The tree's nodes, shallowest first, ties by id.
std::vector<NodeId> nodes_by_depth(const SpanningTree& tree);

/// One item waiting on a tree edge for its round.
struct QueuedItem {
  /// The round its node learned it; -1 for what it knew at the start.
  std::int64_t release = -1;
  /// Among the released items, the smallest key departs first. Distinct
  /// within one edge.
  std::uint64_t key = 0;
  /// The caller's handle on the item (a slot, a part id).
  std::size_t ref = 0;
  /// Set by `depart_by_key`.
  std::int64_t departure = -1;
};

/// Departs the items queued on one tree edge, one per round: each round,
/// the released pending item with the smallest key. Sets every item's
/// `departure` and leaves the items in departure order.
void depart_by_key(std::span<QueuedItem> items);

/// A host-counted phase's stats: `messages` sends, the latest of them in
/// round `latest_departure` (-1 for the start). latest departure + 2
/// rounds, or 0 rounds without a send.
congest::PhaseStats cast_stats(std::int64_t latest_departure,
                               std::int64_t messages);

/// A broadcast from every block-component root of a plan to all nodes of
/// its component, counted on the host.
struct BroadcastSchedule {
  /// Per slot: the root of the slot's component, whose word the slot's
  /// node receives (the node itself for a slot without a parent edge).
  std::vector<NodeId> root;
  /// Its rounds and messages: one message per slot that rides its parent
  /// edge. Nothing is charged to any network.
  congest::PhaseStats stats;
};

/// The broadcast's schedule on `plan` under `priority` (see the file
/// comment). Needs no root depths in the plan: the pass learns them.
BroadcastSchedule broadcast_schedule(
    const SpanningTree& tree, const ComponentPlan& plan,
    RoutingPriority priority = RoutingPriority::kRootDepth);

/// The rounds and messages of a convergecast from every node of each block
/// component to the component root under `priority`, counted on the host
/// (nothing is charged): one message per slot that rides its parent edge.
/// The plan must carry root depths (`has_root_depths`).
congest::PhaseStats convergecast_schedule(
    const SpanningTree& tree, const ComponentPlan& plan,
    RoutingPriority priority = RoutingPriority::kRootDepth);

}  // namespace lcs
