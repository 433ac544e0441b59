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
/// ## One engine phase per runner
///
/// Every superstep, the first included, takes one value path on the host:
/// it makes the hook calls below and adds its rounds and messages through
/// one `Network::add_replayed` call.
///  * exchange — `cross_message` over the runner's list of same-part
///    directed edges in send order (sender ascending, then adjacency order),
///    then `on_cross` in delivery order (receiver ascending, then send
///    order); 1 round if any word was sent, plus one message per word;
///  * convergecast — `contribution` for every slot in node/slot order (the
///    engine's `on_start` order), then each slot that rides its parent edge
///    folds into its parent's slot of the same part, deepest nodes first;
///  * broadcast — every slot takes its component root's aggregate and
///    `on_aggregate` fires once per slot, shallowest nodes first; its
///    rounds and messages are `ShortcutState::broadcast`;
///  * singletons — `on_aggregate` with the node's own `contribution`, for
///    each part member without a plan slot for its part.
///
/// The runner's one engine phase is the convergecast's schedule, run once
/// on the plan with placeholder words (each node contributes 0, `|`
/// combines) by the first call; the engine charges it, and every later
/// call adds its kept stats. No user hook runs inside an engine phase.
///
/// Why this is exact: a node's sends in steps 2–3 depend only on the part
/// ids and root depths on its tree edges (the Lemma 2 keys) and on how many
/// child messages have arrived — all fixed by the plan, never by the words
/// being aggregated — so every convergecast on one plan has the schedule
/// of the placeholder one, and every broadcast has the schedule
/// `compute_shortcut_state` simulated on the same plan. Each sends one
/// message per slot that rides its parent edge (checked). The exchange is
/// one round with no schedule to simulate: each word is one message over a
/// directed edge that appears once in the runner's list. `combine` is
/// associative and commutative and every hook touches only its own node's
/// state, so the runner makes the engine's hook calls with the same
/// arguments, each once, and only the interleaving across nodes differs.
/// Two orders are not kept, so hooks must not depend on them: how
/// `combine` groups its operands, and the order of one node's
/// `on_aggregate` calls for different parts. Every other call at a node
/// comes in the engine's order. The convergecast's schedule runs under the
/// engine's CONGEST checks once per runner; the broadcast's is checked when
/// `compute_shortcut_state` runs it.
///
/// ## Neighbor parts
///
/// The runner's same-part edges come from `NeighborParts`: what each node
/// learns in one round in which every node tells each neighbor its part id.
/// It is one flat `PartId` array aligned with the graph's adjacency (2m
/// entries, node-major), and `of(v)` is node v's row as a span. That round
/// is counted on the host: 2m messages, one round.
///
/// ## Fixed-point repeats
///
/// Min-floods (part_routing.h) and Verification's V1, V2 and V4 are
/// idempotent: a superstep that writes no new value into the flood's state
/// leaves every hook's input as it found it, so each later superstep would
/// make the same calls, send the same words and write nothing either.
/// Their hooks set a flag on every write that changes a value;
/// `run_to_fixed_point` ends the loop at the first superstep that sets
/// none, and `repeat_last` charges the remaining supersteps as copies of
/// it: its rounds and messages (exchange, convergecast and broadcast),
/// each once per copy. Verification's V3 charges its silent levels the same
/// way. What is charged is still the paper's full schedule; only host work
/// shrinks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// Per-node knowledge cached across supersteps: the part id of every
/// neighbor, learned in one round. One `PartId` per adjacency entry, flat
/// in the graph's adjacency order, so node v's row is a span aligned with
/// `Graph::neighbors(v)`.
struct NeighborParts {
  /// The graph whose adjacency `parts` is aligned with.
  const Graph* graph = nullptr;
  /// Entry `graph->adjacency_offset(v) + k` is the part of v's k-th
  /// neighbor (kNoPart for a neighbor in no part).
  std::vector<PartId> parts;

  /// Node v's row: entry k is the part of `graph->neighbors(v)[k].node`.
  std::span<const PartId> of(NodeId v) const {
    return std::span<const PartId>(parts).subspan(
        graph->adjacency_offset(v), graph->neighbors(v).size());
  }
};

/// The one round in which every node tells each neighbor its part id,
/// counted on the host: 2m messages, one per directed edge, and one round
/// (none on a graph without edges).
NeighborParts exchange_neighbor_parts(congest::Network& net,
                                      const Partition& partition);

/// Both exchange hooks of a superstep without the cross-edge exchange.
struct NoExchange {};

/// The hooks of one superstep, typed so the runner calls them inline. Build
/// them by class template argument deduction:
///
///     SuperstepHooks hooks{contribution, combine, identity, on_aggregate,
///                          cross_message, on_cross};
///
/// Leave out the last two to skip the exchange (both become `NoExchange`).
template <class Contribution, class Combine, class OnAggregate,
          class CrossMessage = NoExchange, class OnCross = NoExchange>
struct SuperstepHooks {
  /// `std::uint64_t(NodeId v, PartId j)`: the word fed by node v into the
  /// aggregate of its part-j component. Called for every node of the
  /// component (relays included); return `identity` to contribute nothing.
  Contribution contribution;
  /// `std::uint64_t(std::uint64_t, std::uint64_t)`: associative and
  /// commutative, with identity element `identity`; the grouping of its
  /// operands is unspecified.
  Combine combine;
  std::uint64_t identity = 0;
  /// `void(NodeId v, PartId j, std::uint64_t agg)`: fires at every node of
  /// the component with the component-wide aggregate; a node's calls for
  /// different parts come in no fixed order.
  OnAggregate on_aggregate;
  /// `std::optional<std::uint64_t>(NodeId v, NodeId w, EdgeId e)`: the
  /// cross-edge word from part member v to same-part neighbor w over edge
  /// e; std::nullopt stays silent.
  CrossMessage cross_message{};
  /// `void(NodeId v, NodeId from, EdgeId e, std::uint64_t value)`: the
  /// delivery of a cross-edge word.
  OnCross on_cross{};
};

/// Runs supersteps over one fixed shortcut and partition, with one engine
/// phase in all: the convergecast's schedule, run by the first superstep
/// (see the file comment).
/// Holds references to `net`, `tree`, `partition` and `state`, which must
/// outlive it; a runner is meant to be local to one call and is not safe to
/// share across threads.
class SuperstepRunner {
 public:
  /// Checks that `tree`, `partition` and `state` are sized for `net`,
  /// that `neighbor_parts` was learned on `net`'s graph, and that
  /// `state.broadcast` sent one message per parent-edge slot.
  SuperstepRunner(congest::Network& net, const SpanningTree& tree,
                  const Partition& partition, const ShortcutState& state,
                  const NeighborParts& neighbor_parts);

  const Partition& partition() const { return partition_; }

  /// Execute one superstep. `hooks` is a `SuperstepHooks` or any type with
  /// the same six members. Rounds and messages are accounted in `net`;
  /// O(D + c) rounds per call.
  template <class Hooks>
  void run(const Hooks& hooks);

  /// Account `count` more supersteps that repeat the last `run` exactly:
  /// its rounds and messages, its exchange and convergecast included, each
  /// `count` times. No hook runs. Only for supersteps that would send what
  /// the last one sent and change no state: a flood past its fixed point
  /// (`run_to_fixed_point`), or Verification's silent V3 levels after V3.0.
  void repeat_last(std::int64_t count);

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

  /// Runs the convergecast's schedule on the engine with placeholder words
  /// and keeps its stats in `converge_stats_`.
  void simulate_convergecast();

  congest::Network& net_;
  const SpanningTree& tree_;
  const Partition& partition_;
  const ShortcutState& state_;

  /// Same-part directed edges in send order, and their indices in
  /// delivery order.
  std::vector<CrossEdge> cross_;
  std::vector<std::size_t> delivery_;
  /// Every slot of the plan, shallowest nodes first (ties by node id, then
  /// slot order).
  std::vector<TreeSlot> by_depth_;
  std::int64_t parent_slots_ = 0;
  /// Nodes whose own-part component is a singleton, ascending.
  std::vector<NodeId> singletons_;

  /// The convergecast's stats, once the first call has simulated it.
  std::optional<congest::PhaseStats> converge_stats_;
  /// The whole cost of the last superstep, once one has run.
  std::optional<congest::PhaseStats> last_stats_;

  /// Per-slot accumulators and per-cross-edge words.
  std::vector<std::uint64_t> acc_;
  std::vector<std::optional<std::uint64_t>> cross_word_;
};

template <class Hooks>
void SuperstepRunner::run(const Hooks& hooks) {
  using CrossMessage = std::remove_cvref_t<decltype(hooks.cross_message)>;
  using OnCross = std::remove_cvref_t<decltype(hooks.on_cross)>;
  constexpr bool kExchange = !std::is_same_v<CrossMessage, NoExchange>;
  static_assert(kExchange == !std::is_same_v<OnCross, NoExchange>,
                "cross_message and on_cross come together");
  const ComponentPlan& plan = state_.plan;
  congest::PhaseStats stats = state_.broadcast;

  // 1. Cross-edge exchange between adjacent supernodes over G[Pi] edges:
  //    one round if any word was sent.
  if constexpr (kExchange) {
    std::int64_t sent = 0;
    for (std::size_t i = 0; i < cross_.size(); ++i) {
      const CrossEdge& x = cross_[i];
      cross_word_[i] = hooks.cross_message(x.from, x.to, x.edge);
      if (cross_word_[i].has_value()) ++sent;
    }
    for (const std::size_t i : delivery_) {
      if (!cross_word_[i].has_value()) continue;
      const CrossEdge& x = cross_[i];
      hooks.on_cross(x.to, x.from, x.edge, *cross_word_[i]);
    }
    stats.rounds += sent > 0 ? 1 : 0;
    stats.messages += sent;
  }

  // 2. Convergecast within components, into the root slots of `acc_`:
  //    contributions in the engine's on_start order, then children fold
  //    into parents, deepest nodes first. The first call simulates the
  //    schedule, which the engine charges; later calls add its stats.
  for (NodeId v = 0; v < net_.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    for (std::size_t s = plan.slot_off[i]; s < plan.slot_off[i + 1]; ++s)
      acc_[s] = hooks.contribution(v, plan.slots[s].part);
  }
  for (auto it = by_depth_.rbegin(); it != by_depth_.rend(); ++it) {
    if (it->parent != kRootSlot)
      acc_[it->parent] = hooks.combine(acc_[it->parent], acc_[it->slot]);
  }
  const bool simulate = !converge_stats_.has_value();
  if (simulate) simulate_convergecast();

  // 3. Broadcast: shallowest first, so a parent slot already holds its
  //    component root's aggregate when its children copy it.
  for (const TreeSlot& t : by_depth_) {
    if (t.parent != kRootSlot) acc_[t.slot] = acc_[t.parent];
    hooks.on_aggregate(t.node, plan.slots[t.slot].part, acc_[t.slot]);
  }

  // 4. Singleton components never exchange intra-component messages: their
  //    aggregate is the node's own contribution (a local computation, zero
  //    rounds).
  for (const NodeId v : singletons_) {
    const PartId j = partition_.part(v);
    hooks.on_aggregate(v, j, hooks.contribution(v, j));
  }

  const congest::PhaseStats& up = *converge_stats_;
  last_stats_ = {stats.rounds + up.rounds, stats.messages + up.messages};
  // The engine already charged the convergecast it just simulated.
  net_.add_replayed(simulate ? stats : *last_stats_);
}

/// Runs up to `steps` supersteps of an idempotent flood on `runner`.
/// `step()` runs one superstep and returns whether any hook wrote a new
/// value into the flood's state. The first superstep that writes nothing
/// leaves the state as it found it, so every later one would make the same
/// calls with the same words and write nothing too: they are charged as
/// copies of it (`repeat_last`) instead of run. The charged schedule is
/// still all `steps` supersteps.
template <class Step>
void run_to_fixed_point(SuperstepRunner& runner, std::int32_t steps,
                        Step step) {
  for (std::int32_t i = 0; i < steps; ++i) {
    if (!step()) {
      runner.repeat_last(steps - i - 1);
      return;
    }
  }
}

}  // namespace lcs
