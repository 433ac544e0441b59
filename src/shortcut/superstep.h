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
///
/// Verification and all part-level primitives are loops of this superstep
/// over one fixed shortcut. A `SuperstepRunner`, built once per (shortcut,
/// partition), holds that shortcut's supergraph, and its callers
/// (verification.cpp, part_routing.cpp) keep one value per supernode.
///
/// ## The supergraph
///
/// A part member's supernode is its part plus its block id
/// (`ShortcutState::own_block_root`): the members of one block component,
/// or a member alone when none of its tree edges carries its part. The
/// runner keeps, per supernode, how many same-part directed edges its
/// members send on, and the *links*: the same-part directed edges whose
/// endpoints lie in different supernodes, in the exchange's send order
/// (sender ascending, then adjacency order). A superstep walks the links
/// and the supernodes, never the nodes, the plan's slots or the edges
/// inside a supernode: O(supernodes + links) host work.
///
/// Why one value per supernode is exact, for the floods and Verification's
/// phases that run on it:
///  * every member of a supernode holds the supernode's value after each
///    superstep: the broadcast hands all of them the component aggregate,
///    and each takes it (a min-flood's member ends at the minimum, which is
///    the aggregate). Verification's phases start with one value per
///    supernode, so the members agree before the first superstep too;
///  * a word delivered inside its own supernode never changes a value: it
///    carries the receiver's own supernode value (a min or max of x and x
///    is x; an equal leader is no anomaly; a depth one deeper than the
///    receiver's own is no improvement), or it is never sent (V3 sends only
///    over the link to the BFS parent);
///  * the first min-flood superstep sends each member's own value, which
///    may differ from its supernode's minimum, so that superstep reads the
///    per-node values over the links (`part_min_flood`);
///  * V2/V2.5's anomaly flags stay per node: a flag belongs to the member
///    that received the offending word over a link.
///
/// ## No engine phase
///
/// A superstep's cost does not depend on its words: its convergecast and
/// broadcast take the schedules `compute_shortcut_state` counted on the
/// plan (`ShortcutState::convergecast` and `broadcast`, each one message
/// per slot that rides its parent edge), because a node's sends in Lemma 2
/// depend only on the part ids and root depths on its tree edges and on
/// when its items reach it. The exchange costs one message per same-part
/// directed edge whose sender speaks, and one round if any did. `charge`
/// adds the sum with one `Network::add_replayed` call; edges inside a
/// supernode are counted through the per-supernode send counts, never
/// walked.
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
/// idempotent: a superstep that writes no new value leaves its input as it
/// found it, so each later superstep would send the same words and write
/// nothing either. `run_to_fixed_point` ends the loop at the first
/// superstep that writes nothing, and `repeat_last` charges the remaining
/// supersteps as copies of it. Verification's V3 charges its silent levels
/// the same way. What is charged is still the paper's full schedule; only
/// host work shrinks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
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

/// The supergraph of one fixed shortcut and partition, and the cost of its
/// supersteps (see the file comment). Holds references to `net`,
/// `partition` and `state`, which must outlive it; a runner is meant to be
/// local to one call and is not safe to share across threads.
class SuperstepRunner {
 public:
  /// A supernode index: supernodes are numbered by their smallest member.
  using Supernode = std::uint32_t;
  /// The supernode of a node in no part.
  static constexpr Supernode kNoSupernode =
      std::numeric_limits<Supernode>::max();

  /// A same-part directed edge between two supernodes: member `from` of
  /// supernode `from_super` may send to member `to` of `to_super` over
  /// `edge`.
  struct Link {
    Supernode from_super = kNoSupernode;
    Supernode to_super = kNoSupernode;
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    EdgeId edge = kNoEdge;
  };

  /// Checks that `tree`, `partition` and `state` are sized for `net`,
  /// that `neighbor_parts` was learned on `net`'s graph, and that
  /// `state.broadcast` and `state.convergecast` each send one message per
  /// parent-edge slot, then builds the supergraph.
  SuperstepRunner(congest::Network& net, const SpanningTree& tree,
                  const Partition& partition, const ShortcutState& state,
                  const NeighborParts& neighbor_parts);

  const Partition& partition() const { return partition_; }

  std::size_t num_supernodes() const { return sends_.size(); }
  /// Node v's supernode, or kNoSupernode if v is in no part.
  Supernode supernode(NodeId v) const {
    return supernode_[static_cast<std::size_t>(v)];
  }
  /// The same-part directed edges between different supernodes, in send
  /// order.
  std::span<const Link> links() const { return links_; }
  /// How many same-part directed edges the members of `s` send on, the
  /// edges inside `s` included.
  std::int64_t sends(Supernode s) const { return sends_[s]; }
  /// Every same-part directed edge: a superstep's exchange when every
  /// member speaks.
  std::int64_t all_sends() const { return all_sends_; }

  /// Account one superstep whose exchange sent `words` words: the two
  /// casts on the plan, plus `words` messages and one round if `words` > 0.
  /// A superstep without an exchange sends 0.
  void charge(std::int64_t words);

  /// One superstep of a min-flood in which every member already holds its
  /// supernode's value and speaks: each supernode takes the smallest of
  /// its own value and those of the supernodes linked to it. Charged as a
  /// superstep with `all_sends()` words; returns whether any value fell.
  bool min_step(std::vector<std::uint64_t>& value);

  /// Account `count` more supersteps that repeat the last one exactly: its
  /// rounds and messages, each `count` times. Only for supersteps that
  /// would send what the last one sent and change no state: a flood past
  /// its fixed point (`run_to_fixed_point`), or Verification's silent V3
  /// levels after V3.0.
  void repeat_last(std::int64_t count);

 private:
  congest::Network& net_;
  const Partition& partition_;
  const ShortcutState& state_;

  std::vector<Supernode> supernode_;
  std::vector<Link> links_;
  std::vector<std::int64_t> sends_;
  std::int64_t all_sends_ = 0;

  /// The whole cost of the last superstep, once one has been charged.
  std::optional<congest::PhaseStats> last_stats_;
  /// `min_step`'s copy of the values before the superstep.
  std::vector<std::uint64_t> before_;
};

/// Runs up to `steps` supersteps of an idempotent flood on `runner`.
/// `step()` runs one superstep and returns whether it wrote a new value
/// into the flood's state. The first superstep that writes nothing leaves
/// the state as it found it, so every later one would send the same words
/// and write nothing too: they are charged as copies of it (`repeat_last`)
/// instead of run. The charged schedule is still all `steps` supersteps.
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
