/// \file network.h
/// The synchronous CONGEST engine.
///
/// `Network` executes *phases*: a phase instantiates one `Process` per node
/// and runs synchronous rounds until the system is quiescent (no messages in
/// flight, no wakeups pending) or a round limit trips. Rounds and messages
/// are accounted exactly; the engine's own detection that a phase has gone
/// quiescent is free and uncharged. Most schedules are not simulated at
/// all, because their rounds and messages are fixed in advance by the tree,
/// the graph, the routing plan and the ids, never by the words they carry.
/// These are counted on the host and added through `add_replayed`:
///
///  * `broadcast_word_from_root` (shortcut/tree_ops.h): height rounds and
///    n − 1 messages, from the tree;
///  * `global_or` (shortcut/tree_ops.h): 2·height rounds and 2(n − 1)
///    messages, from the tree;
///  * `exchange_neighbor_parts` (shortcut/superstep.h): one round and 2m
///    messages, from the graph;
///  * Lemma 2's broadcast and convergecast on a shortcut's routing plan
///    (shortcut/tree_routing.h): `compute_shortcut_state` counts both once
///    per shortcut and charges the broadcast;
///  * a shortcut's superstep (shortcut/superstep.h): those two casts' stats
///    plus its one-round exchange (one message per same-part directed edge
///    whose sender speaks, one round if any did), computed on one value per
///    block component;
///  * CoreSlow's id stream and CoreFast's sampled stream and routing phase
///    (shortcut/core_slow.h, shortcut/core_fast.h), from the tree and the
///    part ids;
///  * the supersteps past an idempotent flood's fixed point (Theorem 2's
///    min-floods, Verification's V1, V2 and V4) and Verification's silent
///    V3 levels: each repeats an earlier superstep's sends exactly and is
///    charged as its copy (`SuperstepRunner::repeat_last`), without being
///    computed at all.
///
/// So the shortcut layer runs no engine phase. What still runs on the
/// engine is the BFS tree (tree/bfs_tree.h) and the MST baselines
/// `mst_pipeline` (mst/pipeline.h) and `intra_part_min_flood`
/// (mst/intra_flood.h); `phases()` counts the phases `run` has executed.
///
/// The engine is activity-driven: per round it touches only nodes that
/// received a message or requested a wakeup, so simulation work is
/// proportional to the total message count, not rounds × nodes. A send
/// appends its destination and `Incoming` to one array in send order and
/// queues the destination for the next round. Each round sorts the queued
/// nodes by id (`std::sort`) and counting-scatters the sends by
/// destination into one ordered array, whose spans are the inboxes: in
/// ascending node order, send order within each inbox. Per-node counts and
/// queued flags are reset over the active list only, and a per-directed-
/// edge stamp compared with a 64-bit send-round counter catches double
/// sends, so a phase starts in O(active) and a round costs
/// O(active + messages), independent of n and m.
///
/// ## Validation mode
///
/// `set_validate()` toggles the CONGEST faithfulness checks in the send
/// path: that the sender is an endpoint of the edge it sends over, and that
/// each directed edge carries at most one message per round. Validation is
/// **on by default** (and in all tests); benchmarks turn it off to measure
/// raw engine throughput. With validation off the checks are skipped
/// entirely — behavior, delivery order, and all round/message accounting
/// are unchanged for protocols that obey the model, but a violating
/// protocol is no longer diagnosed.
///
/// ## One thread
///
/// Every process callback runs on the calling thread: `run` has one round
/// loop and `Context::send` one path. The phases left on the engine (the
/// BFS tree and the MST baselines) are small next to the host-counted
/// schedules, so there is no parallel mode. `set_threads` still accepts a
/// non-negative count for callers that pass a `threads` input through; it
/// selects nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "util/check.h"

namespace lcs::congest {

/// Round/message counts for one phase.
struct PhaseStats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
};

class Network {
 public:
  /// Default per-phase round limit; a phase exceeding it is a bug
  /// (non-quiescing protocol) and fails loudly.
  static constexpr std::int64_t kDefaultMaxRounds = 50'000'000;

  explicit Network(const Graph& graph);

  const Graph& graph() const { return *graph_; }
  NodeId num_nodes() const { return graph_->num_nodes(); }

  /// Run one phase over the given per-node processes (`procs[v]` is node
  /// v's process; size must equal num_nodes). Returns this phase's stats
  /// and adds them to the running totals.
  PhaseStats run(std::span<Process* const> procs,
                 std::int64_t max_rounds = kDefaultMaxRounds);

  /// Toggle the CONGEST faithfulness checks (incident-edge and
  /// one-send-per-directed-edge-per-round) in the send path. On by
  /// default; benchmarks turn it off. See the header comment.
  void set_validate(bool on) { validate_ = on; }
  bool validate() const { return validate_; }

  /// Accepts a thread count for callers that still pass one (`threads`
  /// in the run options); the engine is sequential, so it selects
  /// nothing. Negative counts are diagnosed.
  void set_threads(int threads) {
    LCS_CHECK(threads >= 0, "thread count must be non-negative");
  }

  /// Add the rounds and messages of protocol steps counted without the
  /// engine (the list in the file comment): schedules fixed in advance,
  /// counted on the host, and supersteps charged as copies of an earlier
  /// one. Never from inside a phase; the stats must be non-negative.
  void add_replayed(const PhaseStats& stats);

  std::int64_t total_rounds() const { return total_rounds_; }
  std::int64_t total_messages() const { return total_messages_; }
  /// The number of phases `run` has executed (started, aborted ones
  /// included). `add_replayed` adds none.
  std::int64_t phases() const { return phases_; }

  /// Scratch storage reused by `run_phase` across phases so building the
  /// `Process*` view allocates only until the high-water mark is reached.
  std::vector<Process*>& process_scratch() { return proc_scratch_; }

 private:
  friend class Context;

  void do_send(NodeId from, EdgeId e, const Message& m);
  /// Queue `v` for the round being filled, once.
  void do_wake(NodeId v);

  const Graph* graph_;
  bool validate_ = true;

  /// Advances at every phase start and every round: the sends of one
  /// round (or of `on_start`) share one value. Never wraps.
  std::int64_t send_round_ = 0;
  /// The send round of the last send over each directed edge (2e, 2e+1);
  /// used only when validation is on.
  std::vector<std::int64_t> edge_send_round_;

  /// The round being filled: its sends in send order, and its queued nodes
  /// with their message counts (zero and unqueued for every other node).
  std::vector<std::pair<NodeId, Incoming>> sends_;
  std::vector<NodeId> next_active_;
  std::vector<std::size_t> count_;
  std::vector<char> queued_;

  /// The round being delivered: its nodes in ascending id order, the sends
  /// scattered by destination, and where each node's inbox ends in it.
  std::vector<NodeId> active_;
  std::vector<Incoming> inboxes_;
  std::vector<std::size_t> inbox_end_;

  std::vector<Process*> proc_scratch_;

  // A phase is currently running on this network (guards `run` reentry
  // and `add_replayed`).
  bool in_phase_ = false;

  std::int64_t total_rounds_ = 0;
  std::int64_t total_messages_ = 0;
  std::int64_t phases_ = 0;
};

// Context's send/wake are defined here (not in a .cpp) so the per-message
// entry point inlines into process code.
inline void Context::send(EdgeId e, const Message& m) {
  net_.do_send(id_, e, m);
}
inline void Context::wake_next_round() { net_.do_wake(id_); }

/// Convenience: run a phase over a vector of concrete processes. The
/// pointer view is built in `Network`-owned scratch, so repeated phases on
/// the same network do not reallocate it.
template <class P>
PhaseStats run_phase(Network& net, std::vector<P>& procs,
                     std::int64_t max_rounds = Network::kDefaultMaxRounds) {
  static_assert(std::is_base_of_v<Process, P>);
  auto& ptrs = net.process_scratch();
  ptrs.clear();
  ptrs.reserve(procs.size());
  for (auto& p : procs) ptrs.push_back(&p);
  return net.run(ptrs, max_rounds);
}

}  // namespace lcs::congest
