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
/// protocol is no longer diagnosed. Validation works identically in
/// parallel mode: the read-only incidence checks run inside the workers,
/// and the one-send-per-directed-edge check runs during the (sequential,
/// deterministically ordered) lane merge, so a violating protocol is
/// diagnosed at every thread count.
///
/// ## Parallel mode (`set_threads`)
///
/// Rounds are data-parallel per node on the delivery side and data-parallel
/// per *destination range* on the promotion side, so `set_threads(k)` with
/// k > 1 runs both halves of a round on a persistent `WorkerPool`:
///
///  * **Delivery.** Each worker processes a *contiguous shard* of the
///    sorted active list (shard boundaries balance inbox sizes plus a
///    constant per activation, computed from deterministic per-round state
///    only) and appends its sends and wakeups to a private `SendLane`
///    instead of the shared engine state. A lane is bucketed by
///    *destination range* — the node-id space is split into at most k
///    power-of-two-aligned ranges — so every (worker, range) bucket's size
///    is a ready-made per-worker per-destination-range count, and a
///    bucket's contents are that worker's sends into that range in send
///    order.
///
///  * **Promotion.** Immediately after delivery (same pool dispatch, one
///    `run_staged` barrier later) worker r *merges* range r: it replays
///    bucket (l, r) of every lane l in lane order — because workers own
///    ascending shards of the active list, that concatenation is exactly
///    the sequential engine's send order restricted to range r — stamping
///    next-active nodes, accumulating per-node counts, and running the
///    one-send-per-directed-edge check (a directed edge determines its
///    destination, hence its range, so each `edge_dir_stamp_` cell has
///    exactly one writer). At the next round's promotion the counting
///    scatter is parallel the same way: per-range slab offsets are prefix
///    sums of the bucket sizes, and worker r sorts its segment of the
///    active list, builds its spans and write cursors from its exclusive
///    base offset, and runs `scatter_block` passes over its lanes' r
///    buckets into a disjoint destination range of the ordered slab. No
///    O(messages) promotion step runs on one thread; only the O(active)
///    next-active concatenation and shard planning stay serial.
///
/// **Adaptive sequential fallback.** Fork-join costs a few microseconds
/// per round, which dominates tiny rounds (a high-diameter flood is
/// thousands of rounds of a few hundred messages). When a round's pending
/// messages + active nodes fall below `parallel_round_threshold()` the
/// round runs on the sequential path even with `threads() > 1` — same
/// code, same observables, no pool dispatch; rounds above it run parallel.
/// The default (`kDefaultParallelRoundThreshold`) is calibrated so the
/// fallback covers every round whose sequential cost is within ~2x of the
/// measured per-round fork-join overhead; `set_parallel_round_threshold`
/// overrides it (0 forces every round parallel — the determinism tests do
/// this to pin the parallel promotion path).
///
/// **Determinism contract:** for any protocol that obeys the faithfulness
/// rules in process.h (each process touches only its own node's state),
/// every observable is bit-identical at every thread count and every
/// fallback threshold: inbox contents and per-node delivery order, node
/// processing order, `PhaseStats`, `total_rounds` / `total_messages`, and
/// validation diagnostics. The only thing parallel mode may change is
/// which thread a callback runs on — so process code must be race-free
/// across *different* nodes (the faithfulness contract already requires
/// that; a process that mutates state shared between nodes is outside the
/// CONGEST model).
///
/// `set_threads(1)` (the default) is the unchanged sequential engine with
/// zero synchronization; `set_threads(0)` resolves to the hardware
/// concurrency. The thread count may be changed between phases at will,
/// but never from inside a running phase (e.g. from a process callback) —
/// that would resize the engine's live round state and is diagnosed with
/// `LCS_CHECK`.
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
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/worker_pool.h"

namespace lcs::congest {

/// One destination range's slice of a worker's sends: payloads in `fill`,
/// destinations in the parallel `fill_to` (send order), wakeups in `wakes`
/// (duplicates allowed — the merge dedupes via the epoch stamps).
struct LaneBucket {
  std::vector<Incoming> fill;
  std::vector<NodeId> fill_to;
  std::vector<NodeId> wakes;

  void clear() {
    fill.clear();
    fill_to.clear();
    wakes.clear();
  }
};

/// One worker's private send-side state in parallel mode, bucketed by
/// destination range (`Network::range_of`): bucket sizes double as the
/// per-worker per-destination-range counts that drive the parallel merge
/// and scatter. Capacities persist across rounds and phases, like the
/// sequential slabs. Over-aligned so adjacent lanes' headers never share a
/// cache line.
struct alignas(128) SendLane {
  std::vector<LaneBucket> buckets;  // one per destination range

  void clear() {
    for (LaneBucket& b : buckets) b.clear();
  }
};

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

  /// Number of worker threads that execute process callbacks and run
  /// round promotion. 1 (the default) is the sequential engine; 0 resolves
  /// to the hardware concurrency; k > 1 runs each round's delivery in k
  /// contiguous shards and its promotion over at most k destination
  /// ranges, on a persistent worker pool. Bit-identical observables at
  /// every thread count — see the "Parallel mode" header comment for the
  /// determinism contract. May be called between phases at any time, but
  /// never from inside a running phase (diagnosed with LCS_CHECK): it
  /// resizes the lanes and range structures a live round is using.
  void set_threads(int threads);
  /// The resolved thread count (never 0).
  int threads() const { return threads_; }

  /// Default `parallel_round_threshold()`: rounds whose pending messages +
  /// active nodes fall below this run sequentially even with threads() >
  /// 1. Calibrated on the E10 grid-flood bench (see bench_e10_network):
  /// ~2x the round size where one round's sequential cost equals the
  /// measured per-round fork-join overhead, so tiny rounds never pay the
  /// dispatch and message-heavy rounds keep the full parallel path.
  static constexpr std::int64_t kDefaultParallelRoundThreshold = 2048;

  /// Override the adaptive-fallback threshold (0 forces every round onto
  /// the parallel path; the determinism tests use that to pin parallel
  /// promotion on small graphs). Observables are identical at any value.
  /// Like set_threads, must not be called from inside a running phase.
  void set_parallel_round_threshold(std::int64_t work);
  std::int64_t parallel_round_threshold() const {
    return parallel_threshold_;
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
               std::span<const Graph::Neighbor> from_neighbors,
               SendLane* lane);
  void do_wake(NodeId v, SendLane* lane);
  /// The 31-bit view of `tick_` that `NodeState::stamp` compares against.
  std::int32_t tick32() const {
    return util::checked_cast<std::int32_t>(tick_ & 0x7fffffff);
  }
  /// Bump the global epoch; on 31-bit wrap, invalidate all node stamps.
  void advance_tick();
  /// Ascending-id order of the active list (LSD radix over id bytes).
  void sort_active(std::vector<NodeId>& a);
  /// The radix core behind sort_active, callable per range segment with a
  /// caller-owned scratch buffer so segments sort concurrently.
  static void sort_ids(NodeId* data, std::size_t size,
                       std::vector<NodeId>& scratch);

  /// Destination range of node v (ranges are power-of-two spans of the id
  /// space, at most threads() of them — see compute_range_layout).
  int range_of(NodeId v) const { return util::checked_cast<int>(v >> range_shift_); }
  /// Recompute range_shift_ / num_ranges_ from num_nodes and threads_ and
  /// size the per-range structures.
  void compute_range_layout();

  /// Stamp `to` into the round being filled and count one message for it,
  /// diagnosing per-node inbox overflow; newly stamped nodes append to
  /// `out_active` (next_active_ on the sequential path, the range's
  /// merge_next_ slot in the parallel merge replay).
  void count_message_to(NodeId to, std::int32_t now,
                        std::vector<NodeId>& out_active) {
    NodeState& st = node_state_[static_cast<std::size_t>(to)];
    if (st.stamp != now) {
      st.stamp = now;
      st.count = 1;
      out_active.push_back(to);
    } else {
      LCS_CHECK(st.count != INT32_MAX,
                "engine limit exceeded: a node received 2^31 - 1 messages "
                "in one round");
      ++st.count;
    }
  }

  /// Produce the destination-major ordering of the fill slab and the
  /// per-active-node `spans_` into it via a counting scatter through
  /// per-node cursors; returns the ordered message array.
  const Incoming* cursor_scatter(std::size_t nmsg);

  /// Shared first half of the sequential scatters: build `spans_` and turn
  /// each active node's `NodeState::count` into its write cursor; grow the
  /// ordered slab to `nmsg`.
  void build_spans(std::size_t nmsg);
  /// The count-to-cursor core of every scatter: for active_[lo, hi), fill
  /// `spans_` and repurpose each node's count as its write cursor,
  /// starting at slab offset `base`; returns the end offset. Disjoint
  /// segments run concurrently (promote_parallel) or back to back
  /// (build_spans).
  std::int64_t build_spans_segment(std::size_t lo, std::size_t hi,
                                   std::int64_t base);
  /// Scatter one contiguous block of (payload, destination) pairs through
  /// the node-state cursors into the ordered slab.
  void scatter_block(const Incoming* fill, const NodeId* fill_to,
                     std::size_t count);
  /// Sequential-fallback scatter of lane-resident sends: for each range,
  /// scatter its buckets in lane order (the sequential fill order
  /// restricted to the range) and clear them.
  const Incoming* scatter_lanes_sequential(std::size_t nmsg);
  /// Parallel promotion of lane-resident sends: worker r sorts its range's
  /// segment of the active list, builds its spans and cursors from the
  /// prefix-summed bucket counts, and scatter_blocks its buckets into its
  /// disjoint slice of the ordered slab. Requires fill_in_lanes_ (the
  /// previous round merged in parallel, so range_active_bounds_ is fresh).
  const Incoming* promote_parallel(std::size_t nmsg);
  /// Merge replay of destination range r: walk bucket (l, r) of every lane
  /// l in lane order — the sequential send order restricted to range r —
  /// stamping per-node state, appending to merge_next_[r], and running the
  /// double-send check. Runs concurrently across ranges.
  void merge_range(int r);
  /// Serial tail of the parallel merge: concatenate merge_next_ into
  /// next_active_ (range-major; segments sort in the next promotion) and
  /// record the per-range segment bounds.
  void finish_parallel_merge();
  /// Run one round's `on_round` callbacks and the following merge as one
  /// two-stage pool job: stage 0 delivers contiguous weight-balanced
  /// shards of `active_` into the lanes, stage 1 merges the destination
  /// ranges.
  void run_parallel_round(std::span<Process* const> procs,
                          const Incoming* ordered, std::int64_t round);

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

  // Parallel mode: resolved thread count (1 = sequential), the persistent
  // worker team, one send lane per worker, and the per-round shard
  // boundaries into `active_` (size threads_ + 1).
  int threads_ = 1;
  std::unique_ptr<WorkerPool> pool_;
  std::vector<SendLane> lanes_;
  std::vector<std::size_t> shard_bounds_;

  // Destination-range layout for parallel promotion: ranges are
  // 2^range_shift_-wide spans of the id space, num_ranges_ <= threads_ of
  // them. Recomputed by set_threads.
  int range_shift_ = 0;
  int num_ranges_ = 1;
  // Per-range promotion state: merge_next_[r] collects range r's newly
  // active nodes during the merge stage; range_active_bounds_ (size
  // num_ranges_ + 1) are the resulting segment bounds of the *next*
  // active list; range_msg_base_ caches the prefix-summed per-range
  // message offsets into the ordered slab; range_sort_scratch_[r] is
  // range r's private radix buffer.
  std::vector<std::vector<NodeId>> merge_next_;
  std::vector<std::size_t> range_active_bounds_;
  std::vector<std::int64_t> range_msg_base_;
  std::vector<std::vector<NodeId>> range_sort_scratch_;

  // Adaptive fallback: rounds below this work level (pending messages +
  // active nodes) run sequentially even with threads_ > 1.
  std::int64_t parallel_threshold_ = kDefaultParallelRoundThreshold;
  // Where the pending round's sends live: the worker lanes (previous
  // round ran parallel) or the sequential fill slab.
  bool fill_in_lanes_ = false;
  // A phase is currently running on this network (guards set_threads).
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
  net_.do_send(id_, e, m, neighbors_, lane_);
}
inline void Context::wake_next_round() { net_.do_wake(id_, lane_); }

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
