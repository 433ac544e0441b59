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
///    plus its one-round exchange (one message per word, one round if any
///    word was sent);
///  * CoreSlow's id stream and CoreFast's sampled stream and routing phase
///    (shortcut/core_slow.h, shortcut/core_fast.h), from the tree and the
///    part ids;
///  * the supersteps past an idempotent flood's fixed point (Theorem 2's
///    min-floods, Verification's V1, V2 and V4) and Verification's silent
///    V3 levels: each repeats an earlier superstep's sends exactly and is
///    charged as its copy (`SuperstepRunner::repeat_last`).
///
/// So the shortcut layer runs no engine phase. What still runs on the
/// engine is the BFS tree (tree/bfs_tree.h) and the MST baselines
/// `mst_pipeline` (mst/pipeline.h) and `intra_part_min_flood`
/// (mst/intra_flood.h); `phases()` counts the phases `run` has executed.
///
/// The engine is activity-driven: per round it touches only nodes that
/// received a message or requested a wakeup, so simulation work is
/// proportional to the total message count, not rounds × nodes.
///
/// ## Engine internals (slab inboxes, epoch stamps, O(active) scheduling)
///
/// The hot path is allocation-free in the steady state and touches O(active
/// + messages) memory per round:
///
///  * **Slab inboxes.** Messages live in two arena slabs that are
///    double-buffered between the round being filled and the round being
///    delivered. A send appends one `Incoming` to the *fill* slab (plus its
///    destination in a parallel array) and bumps a per-node epoch-stamped
///    message count — one 16-byte `NodeState` touch, no per-message or
///    per-node heap allocation (slab capacity persists across rounds and
///    phases). At round promotion the fill slab is counting-scattered into
///    the *ordered* slab, destination-major in ascending node order and
///    send-ordered within each destination, so every inbox a process sees
///    is a contiguous slab range: the public API stays
///    `std::span<const Incoming>` with zero per-message copies at delivery,
///    the whole round's delivery is one sequential pass over the ordered
///    slab, and per-node delivery order matches the historical
///    vector-of-vectors engine bit-for-bit.
///
///  * **Epoch-stamped resets.** A global monotone `tick_` advances once per
///    phase start and once per round. Membership tests that previously
///    required O(n) or O(m) `std::fill` resets per phase — "is v already in
///    next round's active list", "how many messages does v have in the fill
///    round", "did this directed edge already carry a send this round" — are
///    all expressed as `stamp[x] == tick_`, so nothing is ever cleared and
///    `run` startup is O(active), independent of n and m.
///
///  * **O(active) scheduling.** The active list is ordered ascending by node
///    id each round (the engine's determinism contract) with an LSD radix
///    sort over the id bytes (insertion sort below a small cutoff), so
///    scheduling costs O(active) per round instead of O(active log active).
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
///
/// ## Engine limits
///
/// A single round carries at most 2^31 - 1 messages, and consequently a
/// single node receives at most 2^31 - 1 messages per round (inbox spans
/// and per-node counts are 32-bit by design — see `NodeState`). Exceeding
/// the limit is diagnosed with a clear `CheckFailure` ("engine limit"), in
/// the send path for a single hot destination and at round promotion for
/// the round total, never silent wraparound. At ~48 bytes per pending
/// message the limit corresponds to a ~100 GB fill slab, so real
/// workloads hit memory long before the diagnostic.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "util/cast.h"
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
  friend struct NetworkTestPeer;

  /// Epoch-stamped per-node round state: `stamp == tick32()` means the
  /// node is in the round currently being filled; `count` is its message
  /// count in that round (0 for a wakeup-only activation). During the
  /// scatter pass `count` is repurposed as the node's write cursor into
  /// the ordered slab. The stamp is the low 31 bits of the global tick —
  /// an 8-byte cell halves the footprint of the engine's hottest
  /// random-access array; `advance_tick` refills the array on the (rare)
  /// wrap so stale stamps can never alias a live tick. The 32-bit count
  /// is why a node's per-round inbox is capped at 2^31 - 1 messages (see
  /// "Engine limits" above).
  struct NodeState {
    std::int32_t stamp;
    std::int32_t count;
  };

  /// Contiguous range of one node's messages in the ordered slab.
  struct InboxSpan {
    std::int32_t start;
    std::int32_t count;
  };

  void do_send(NodeId from, EdgeId e, const Message& m,
               std::span<const Graph::Neighbor> from_neighbors);
  void do_wake(NodeId v);
  /// The 31-bit view of `tick_` that `NodeState::stamp` compares against.
  std::int32_t tick32() const {
    return util::checked_cast<std::int32_t>(tick_ & 0x7fffffff);
  }
  /// Bump the global epoch; on 31-bit wrap, invalidate all node stamps.
  void advance_tick();
  /// Ascending-id order of the active list (LSD radix over id bytes).
  void sort_active();

  /// Produce the destination-major ordering of the fill slab and the
  /// per-active-node `spans_` into it via a counting scatter through
  /// per-node cursors; returns the ordered message array.
  const Incoming* cursor_scatter(std::size_t nmsg);

  const Graph* graph_;
  bool validate_ = true;

  /// Global epoch: advances at every phase start and every round. All
  /// "reset per round/phase" state below is stamp-guarded against it.
  std::int64_t tick_ = 0;

  // Message arenas. Sends append the payload to `slab_fill_` and the
  // destination to the parallel `slab_fill_to_` (send order); round
  // promotion counting-scatters them destination-major into
  // `slab_ordered_`, from which all inbox spans are served. Capacities
  // persist across rounds and phases.
  std::vector<Incoming> slab_fill_;
  std::vector<NodeId> slab_fill_to_;
  std::vector<Incoming> slab_ordered_;

  std::vector<NodeState> node_state_;
  std::vector<NodeId> next_active_;

  // Endpoints of every edge, sans weight: half the footprint of the full
  // `Graph::Edge` array for the per-send destination lookup.
  std::vector<std::pair<NodeId, NodeId>> edge_ends_;

  // Tick of the last send over each directed edge (2e, 2e+1); used only
  // when validation is on.
  std::vector<std::int64_t> edge_dir_stamp_;

  // Reused per-round scratch (capacity persists across rounds/phases).
  std::vector<NodeId> active_;
  std::vector<InboxSpan> spans_;  // aligned with active_
  std::vector<NodeId> radix_scratch_;
  std::vector<Process*> proc_scratch_;

  // A phase is currently running on this network (guards `run` reentry
  // and `add_replayed`).
  bool in_phase_ = false;

  std::int64_t phase_messages_ = 0;

  std::int64_t total_rounds_ = 0;
  std::int64_t total_messages_ = 0;
  std::int64_t phases_ = 0;
};

/// White-box access for the engine's own tests — never use outside
/// `tests/`. Lets a test start the epoch counter near the 31-bit stamp
/// wrap and prime a node's in-flight message count at the inbox limit,
/// states that would otherwise take ~2^31 rounds or sends to reach.
struct NetworkTestPeer {
  static void set_tick(Network& net, std::int64_t tick) { net.tick_ = tick; }
  static std::int64_t tick(const Network& net) { return net.tick_; }
  /// Pretend `v` already received `count` messages in the round currently
  /// being filled (stamps it with the live tick).
  static void prime_inbox_count(Network& net, NodeId v, std::int32_t count) {
    net.node_state_[static_cast<std::size_t>(v)] =
        Network::NodeState{net.tick32(), count};
  }
};

// Context's send/wake are defined here (not in a .cpp) so the per-message
// entry point inlines into process code; the sender's neighbor span rides
// along to resolve the destination from cache-warm adjacency.
inline void Context::send(EdgeId e, const Message& m) {
  net_.do_send(id_, e, m, neighbors_);
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
