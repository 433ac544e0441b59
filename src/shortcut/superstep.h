/// \file superstep.h
/// The *supergraph superstep*: the communication step underlying Theorem 2
/// and Lemmas 3/6.
///
/// The paper views each part's shortcut subgraph as a supergraph whose
/// supernodes are block components. One algorithmic step on the supergraph
/// ("supernodes talk to their neighbors, then internally agree") costs
/// O(D + c) CONGEST rounds:
///   1. one round in which part members exchange a word with their same-part
///      graph neighbors (the G[Pi] edges that connect adjacent supernodes —
///      these are disjoint across parts, so never congested),
///   2. convergecast one word from all nodes of each block component to its
///      root (Lemma 2),
///   3. broadcast the aggregate back to all nodes of the component.
/// Running the cross-edge exchange *first* guarantees that all nodes of a
/// component end every superstep agreeing on the component state (the final
/// word every node saw is the component aggregate).
/// Singleton components short-circuit steps 2–3 locally (zero rounds).
///
/// Verification and all part-level primitives are loops of this superstep
/// with different hooks, all over one fixed shortcut. Steps 2–3 run on the
/// routing plan the shortcut's state already carries (`ShortcutState::plan`,
/// tree_routing.h), and a `SuperstepRunner` built once per (shortcut,
/// partition) runs the loop.
///
/// ## Simulated once, replayed after
///
/// The runner's first superstep runs all three steps on the engine and
/// keeps the `PhaseStats` of steps 2–3. Every later superstep makes the
/// same hook calls without the engine and adds the rounds and messages
/// through `Network::add_replayed`:
///  * exchange — `cross_message` over the runner's list of same-part
///    directed edges in send order (sender ascending, then adjacency order),
///    then `on_cross` in the engine's delivery order (receiver ascending,
///    then send order); 1 round if any message was sent, plus one message
///    per word;
///  * convergecast — `contribution` for every slot in node/slot order (the
///    engine's `on_start` order), then each slot that rides its parent edge
///    folds into its parent's slot of the same part, deepest nodes first;
///  * broadcast — every slot takes its component root's aggregate and
///    `on_aggregate` fires once per slot, shallowest nodes first;
///  * plus the first superstep's convergecast and broadcast stats.
///
/// Why a replay is exact: a node's sends in steps 2–3 depend only on the
/// part ids and root depths on its tree edges (the Lemma 2 keys) and on how
/// many child messages have arrived — all fixed by the plan, never by the
/// words being aggregated — so every superstep on one plan has the same
/// schedule, one message per slot that rides its parent edge (checked when
/// recording). `combine` is associative and commutative and every hook
/// touches only its own node's state, so the replay makes the same hook
/// calls with the same arguments, each once, and only the interleaving
/// across nodes differs. Two orders are not kept, so hooks must not depend
/// on them: how `combine` groups its operands, and the order of one node's
/// `on_aggregate` calls for different parts. Every other call at a node
/// comes in the engine's order. The first superstep runs under the
/// engine's CONGEST checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// Per-node knowledge cached across supersteps: each node's list of
/// neighbors' part ids (learned in a single setup round).
struct NeighborParts {
  /// Aligned with Graph::neighbors(v).
  congest::PerNode<std::vector<PartId>> of;
};

/// One-round exchange in which every node tells its neighbors its part id.
NeighborParts exchange_neighbor_parts(congest::Network& net,
                                      const Partition& partition);

struct SuperstepHooks {
  /// Word fed by node v into the aggregate of its part-j component. Called
  /// for every node of the component (relays included); return `identity`
  /// to contribute nothing.
  std::function<std::uint64_t(NodeId v, PartId j)> contribution;
  /// Associative + commutative combiner and its identity element; the
  /// grouping of its operands is unspecified.
  std::function<std::uint64_t(std::uint64_t, std::uint64_t)> combine;
  std::uint64_t identity = 0;
  /// Fires at every node of the component with the component-wide aggregate;
  /// a node's calls for different parts come in no fixed order.
  std::function<void(NodeId v, PartId j, std::uint64_t agg)> on_aggregate;
  /// Cross-edge message from part member v to same-part neighbor w over
  /// edge e; return std::nullopt to stay silent. May be null to skip the
  /// exchange round entirely.
  std::function<std::optional<std::uint64_t>(NodeId v, NodeId w, EdgeId e)>
      cross_message;
  /// Delivery of a cross-edge message.
  std::function<void(NodeId v, NodeId from, EdgeId e, std::uint64_t value)>
      on_cross;
};

/// Runs supersteps over one fixed shortcut and partition: the first on the
/// engine, every later one replayed (see the file comment). Holds
/// references to all its arguments, which must outlive it; a runner is
/// meant to be local to one call and is not safe to share across threads.
class SuperstepRunner {
 public:
  /// Checks that `tree`, `partition`, `state` and `neighbor_parts` are
  /// sized for `net` (`neighbor_parts.of[v]` aligned with v's adjacency).
  SuperstepRunner(congest::Network& net, const SpanningTree& tree,
                  const Partition& partition, const ShortcutState& state,
                  const NeighborParts& neighbor_parts);

  /// Execute one superstep. Rounds and messages are accounted in `net`;
  /// O(D + c) rounds per call.
  void run(const SuperstepHooks& hooks);

 private:
  /// A same-part directed edge: member `from` may send to `to` over `edge`.
  struct CrossEdge {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    EdgeId edge = kNoEdge;
  };
  /// `TreeSlot::parent` of a slot whose node roots its component.
  static constexpr std::size_t kRootSlot =
      std::numeric_limits<std::size_t>::max();
  /// A slot of the plan with its node and, if it rides the node's parent
  /// edge, the parent's slot of the same part (else kRootSlot).
  struct TreeSlot {
    std::size_t slot = 0;
    std::size_t parent = kRootSlot;
    NodeId node = kNoNode;
  };

  void record(const SuperstepHooks& hooks);
  void replay(const SuperstepHooks& hooks);

  congest::Network& net_;
  const SpanningTree& tree_;
  const Partition& partition_;
  const ShortcutState& state_;
  const NeighborParts& neighbor_parts_;

  /// Same-part directed edges in send order, and their indices in the
  /// engine's delivery order.
  std::vector<CrossEdge> cross_;
  std::vector<std::size_t> delivery_;
  /// Every slot of the plan, shallowest nodes first (ties by node id, then
  /// slot order).
  std::vector<TreeSlot> by_depth_;
  std::int64_t parent_slots_ = 0;

  /// The first superstep's convergecast + broadcast stats; set once
  /// `recorded_`.
  bool recorded_ = false;
  congest::PhaseStats tree_stats_;

  /// Replay scratch: per-slot accumulators and per-cross-edge words.
  std::vector<std::uint64_t> acc_;
  std::vector<std::optional<std::uint64_t>> cross_word_;
};

}  // namespace lcs
