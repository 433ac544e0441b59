#include "congest/network.h"

#include <algorithm>

#include "congest/message.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/worker_pool.h"

namespace lcs::congest {

Network::Network(const Graph& graph) : graph_(&graph) {
  const auto n = static_cast<std::size_t>(graph.num_nodes());
  // Stamps start below any tick the engine will ever produce, so every
  // stamp-guarded structure begins logically empty with no fills needed
  // (tick32() is never negative).
  node_state_.assign(n, NodeState{-1, 0});
  edge_dir_stamp_.assign(static_cast<std::size_t>(graph.num_edges()) * 2, -1);
  edge_ends_.reserve(static_cast<std::size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const auto& ed = graph.edge(e);
    edge_ends_.emplace_back(ed.u, ed.v);
  }
}

void Network::set_threads(int threads) {
  LCS_CHECK(threads >= 0, "thread count must be non-negative");
  LCS_CHECK(!in_phase_,
            "set_threads may not be called while a phase is running (e.g. "
            "from a process callback): it resizes live round state");
  threads_ = WorkerPool::resolve_threads(threads);
  if (threads_ <= 1) {
    pool_.reset();
    lanes_.clear();
    merge_next_.clear();
    range_sort_scratch_.clear();
    range_shift_ = 0;
    num_ranges_ = 1;
    return;
  }
  if (!pool_ || pool_->size() != threads_)
    pool_ = std::make_unique<WorkerPool>(threads_);
  compute_range_layout();
  if (lanes_.size() != static_cast<std::size_t>(threads_))
    lanes_.resize(static_cast<std::size_t>(threads_));
  for (SendLane& lane : lanes_)
    if (lane.buckets.size() != static_cast<std::size_t>(num_ranges_))
      lane.buckets.resize(static_cast<std::size_t>(num_ranges_));
  merge_next_.resize(static_cast<std::size_t>(num_ranges_));
  range_sort_scratch_.resize(static_cast<std::size_t>(num_ranges_));
}

void Network::set_parallel_round_threshold(std::int64_t work) {
  LCS_CHECK(work >= 0, "threshold must be non-negative");
  LCS_CHECK(!in_phase_,
            "set_parallel_round_threshold may not be called while a phase "
            "is running");
  parallel_threshold_ = work;
}

void Network::compute_range_layout() {
  // Ranges are power-of-two spans of the id space so range_of is a single
  // shift in the send path: the span is the smallest power of two >=
  // ceil(n / threads), giving between threads/2 and threads ranges.
  const std::int64_t n = graph_->num_nodes();
  const std::int64_t k = threads_;
  const std::int64_t per = n <= 0 ? 1 : (n + k - 1) / k;
  int shift = 0;
  while ((std::int64_t{1} << shift) < per) ++shift;
  range_shift_ = shift;
  num_ranges_ = n <= 1 ? 1 : util::checked_cast<int>(((n - 1) >> shift) + 1);
}

void Network::do_send(NodeId from, EdgeId e, const Message& m,
                      std::span<const Graph::Neighbor> from_neighbors,
                      SendLane* lane) {
  // Resolve the destination. For low-degree senders, scan the sender's own
  // adjacency — the process just iterated it, so those lines are hot and
  // the cold random load of edge_ends_[e] is skipped; high-degree senders
  // (hubs) take the O(1) lookup instead of an O(deg) scan.
  NodeId to = kNoNode;
  if (from_neighbors.size() <= 16) {
    for (const auto& nb : from_neighbors) {
      if (nb.edge == e) {
        to = nb.node;
        break;
      }
    }
    if (to == kNoNode) {
      // `e` is not incident to the sender (or out of range): diagnose in
      // validate mode, otherwise fall through to the blind lookup exactly
      // like the high-degree path.
      if (validate_) {
        LCS_CHECK(e >= 0 && e < graph_->num_edges(), "edge id out of range");
        LCS_CHECK(false, "process tried to send over a non-incident edge");
      }
      const auto& [u, v] = edge_ends_[static_cast<std::size_t>(e)];
      to = u == from ? v : u;
    }
  } else {
    if (validate_) {
      LCS_CHECK(e >= 0 && e < graph_->num_edges(), "edge id out of range");
      const auto& [u, v] = edge_ends_[static_cast<std::size_t>(e)];
      LCS_CHECK(u == from || v == from,
                "process tried to send over a non-incident edge");
    }
    const auto& [u, v] = edge_ends_[static_cast<std::size_t>(e)];
    to = u == from ? v : u;
  }
  if (lane != nullptr) {
    // Parallel worker: append to the private lane's destination-range
    // bucket and return. The double-send check and the per-destination
    // accounting mutate shared state, so they are deferred to the merge
    // stage, where each destination range is replayed by exactly one
    // worker in the sequential engine's send order.
    LaneBucket& b = lane->buckets[static_cast<std::size_t>(range_of(to))];
    b.fill.push_back(Incoming{from, e, m});
    b.fill_to.push_back(to);
    return;
  }

  if (validate_) {
    const std::size_t dir =
        static_cast<std::size_t>(e) * 2 +
        (from == edge_ends_[static_cast<std::size_t>(e)].first ? 0 : 1);
    LCS_CHECK(edge_dir_stamp_[dir] != tick_,
              "CONGEST violation: two sends over one edge in one round");
    edge_dir_stamp_[dir] = tick_;
  }

  slab_fill_.push_back(Incoming{from, e, m});
  slab_fill_to_.push_back(to);
  count_message_to(to, tick32(), next_active_);
}

void Network::do_wake(NodeId v, SendLane* lane) {
  if (lane != nullptr) {
    lane->buckets[static_cast<std::size_t>(range_of(v))].wakes.push_back(v);
    return;
  }
  NodeState& st = node_state_[static_cast<std::size_t>(v)];
  const std::int32_t now = tick32();
  if (st.stamp != now) {
    st.stamp = now;
    st.count = 0;
    next_active_.push_back(v);
  }
}

void Network::advance_tick() {
  ++tick_;
  if (tick32() == 0) {
    // 31-bit stamp wrap (once per ~2 billion rounds): a stale stamp could
    // now alias a future tick, so pay one O(n) refill and skip tick32 0.
    for (NodeState& st : node_state_) st.stamp = -1;
    ++tick_;
  }
}

void Network::sort_active(std::vector<NodeId>& a) {
  sort_ids(a.data(), a.size(), radix_scratch_);
}

void Network::sort_ids(NodeId* data, std::size_t size,
                       std::vector<NodeId>& scratch) {
  if (size < 2) return;
  if (size <= 64) {  // insertion sort beats radix setup at this scale
    for (std::size_t i = 1; i < size; ++i) {
      const NodeId key = data[i];
      std::size_t j = i;
      for (; j > 0 && data[j - 1] > key; --j) data[j] = data[j - 1];
      data[j] = key;
    }
    return;
  }

  // LSD radix sort, one byte per pass. Node ids are dense non-negative
  // ints, so passes whose byte is constant across all keys (typically the
  // high bytes) are detected from the histograms and skipped.
  constexpr int kBytes = sizeof(NodeId);
  std::size_t hist[kBytes][256] = {};
  for (std::size_t i = 0; i < size; ++i) {
    const auto key = util::checked_cast<std::uint32_t>(data[i]);
    for (int b = 0; b < kBytes; ++b) ++hist[b][(key >> (8 * b)) & 0xff];
  }
  scratch.resize(size);
  NodeId* src = data;
  NodeId* dst = scratch.data();
  for (int b = 0; b < kBytes; ++b) {
    auto& h = hist[b];
    const std::size_t first = (util::checked_cast<std::uint32_t>(src[0]) >> (8 * b)) & 0xff;
    if (h[first] == size) continue;  // all keys share this byte
    std::size_t offset = 0;
    for (std::size_t bucket = 0; bucket < 256; ++bucket) {
      const std::size_t count = h[bucket];
      h[bucket] = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < size; ++i) {
      const auto key = util::checked_cast<std::uint32_t>(src[i]);
      dst[h[(key >> (8 * b)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + size, data);
}

void Network::build_spans(std::size_t nmsg) {
  // Inbox spans from the per-node message counts (prefix sum over the
  // sorted active list); `NodeState::count` doubles as the scatter's
  // write cursor.
  spans_.resize(active_.size());
  const std::int64_t total = build_spans_segment(0, active_.size(), 0);
  LCS_CHECK(total == static_cast<std::int64_t>(nmsg),
            "inbox accounting out of sync");

  // Grow-only: the ordered arena is fully overwritten up to `nmsg` by the
  // scatter, so shrinking (and re-initializing on regrowth) would be pure
  // waste.
  if (slab_ordered_.size() < nmsg) slab_ordered_.resize(nmsg);
}

std::int64_t Network::build_spans_segment(std::size_t lo, std::size_t hi,
                                          std::int64_t base) {
  std::int64_t total = base;
  for (std::size_t i = lo; i < hi; ++i) {
    if (i + 16 < hi)
      __builtin_prefetch(
          &node_state_[static_cast<std::size_t>(active_[i + 16])], 1);
    NodeState& st = node_state_[static_cast<std::size_t>(active_[i])];
    spans_[i] = InboxSpan{util::checked_cast<std::int32_t>(total), st.count};
    st.count = util::checked_cast<std::int32_t>(total);  // scatter write cursor
    total += spans_[i].count;
  }
  return total;
}

void Network::scatter_block(const Incoming* fill, const NodeId* fill_to,
                            std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    // Two-stage prefetch pipeline over the pass's only cold lines: the
    // per-destination cursor (64 ahead), then the store target it points
    // at (24 ahead; a stale cursor there only weakens the hint).
    if (i + 64 < count)
      __builtin_prefetch(
          &node_state_[static_cast<std::size_t>(fill_to[i + 64])], 1);
    if (i + 24 < count)
      __builtin_prefetch(
          &slab_ordered_[static_cast<std::size_t>(
              node_state_[static_cast<std::size_t>(fill_to[i + 24])].count)],
          1);
    NodeState& st = node_state_[static_cast<std::size_t>(fill_to[i])];
    slab_ordered_[static_cast<std::size_t>(st.count++)] = fill[i];
  }
}

const Incoming* Network::cursor_scatter(std::size_t nmsg) {
  build_spans(nmsg);
  scatter_block(slab_fill_.data(), slab_fill_to_.data(), nmsg);
  return slab_ordered_.data();
}

const Incoming* Network::scatter_lanes_sequential(std::size_t nmsg) {
  // Sequential fallback for a small round whose sends live in the lanes:
  // per destination range, scatter its buckets in lane order — the
  // sequential fill order restricted to that range, so every inbox comes
  // out in the sequential engine's delivery order (ranges are disjoint
  // destination sets, so the range iteration order is immaterial).
  build_spans(nmsg);
  for (int r = 0; r < num_ranges_; ++r) {
    for (SendLane& lane : lanes_) {
      LaneBucket& b = lane.buckets[static_cast<std::size_t>(r)];
      scatter_block(b.fill.data(), b.fill_to.data(), b.fill.size());
      b.clear();
    }
  }
  return slab_ordered_.data();
}

const Incoming* Network::promote_parallel(std::size_t nmsg) {
  // Exclusive per-range slab offsets: prefix sums of the (worker, range)
  // bucket sizes — the count arrays the workers built for free during the
  // round. Everything O(messages) below runs on the pool; only this
  // O(threads * ranges) scan is serial.
  range_msg_base_.assign(static_cast<std::size_t>(num_ranges_) + 1, 0);
  for (const SendLane& lane : lanes_)
    for (int r = 0; r < num_ranges_; ++r)
      range_msg_base_[static_cast<std::size_t>(r) + 1] +=
          static_cast<std::int64_t>(
              lane.buckets[static_cast<std::size_t>(r)].fill.size());
  for (int r = 0; r < num_ranges_; ++r)
    range_msg_base_[static_cast<std::size_t>(r) + 1] +=
        range_msg_base_[static_cast<std::size_t>(r)];
  LCS_CHECK(range_msg_base_[static_cast<std::size_t>(num_ranges_)] ==
                static_cast<std::int64_t>(nmsg),
            "inbox accounting out of sync");

  spans_.resize(active_.size());
  if (slab_ordered_.size() < nmsg) slab_ordered_.resize(nmsg);

  pool_->run([&](int r) {
    if (r >= num_ranges_) return;
    const auto ur = static_cast<std::size_t>(r);
    // Worker r owns destination range r end to end: its segment of the
    // active list (recorded by the merge that built this round's active
    // set), its slice [base, base') of the ordered slab, and its buckets.
    const std::size_t lo = range_active_bounds_[ur];
    const std::size_t hi = range_active_bounds_[ur + 1];
    sort_ids(active_.data() + lo, hi - lo, range_sort_scratch_[ur]);

    // Spans and write cursors for the segment, started at the range's
    // exclusive base offset.
    const std::int64_t total =
        build_spans_segment(lo, hi, range_msg_base_[ur]);
    LCS_CHECK(total == range_msg_base_[ur + 1],
              "inbox accounting out of sync");

    for (SendLane& lane : lanes_) {
      LaneBucket& b = lane.buckets[ur];
      scatter_block(b.fill.data(), b.fill_to.data(), b.fill.size());
      b.clear();
    }
  });
  return slab_ordered_.data();
}

void Network::merge_range(int r) {
  // Replay destination range r of every lane into the shared per-node
  // state exactly as the sequential send path would have. Lanes are
  // walked in worker order and each bucket in insertion order; workers
  // own contiguous ascending shards of the active list, so this
  // concatenation *is* the sequential engine's send order restricted to
  // range r — and a destination's full delivery order lives in one range,
  // so counts, the next-active set, and the double-send diagnostics all
  // come out bit-identical. A directed edge determines its destination
  // and hence its range, so each edge_dir_stamp_ cell has exactly one
  // writing worker. Wakeups are replayed after a bucket's sends, which is
  // order-insensitive: a wakeup only stamps a node with count 0 when
  // nothing stamped it yet, and never changes the count otherwise.
  const std::int32_t now = tick32();
  const auto ur = static_cast<std::size_t>(r);
  std::vector<NodeId>& out = merge_next_[ur];
  for (SendLane& lane : lanes_) {
    const LaneBucket& b = lane.buckets[ur];
    const std::size_t nmsg = b.fill.size();
    const Incoming* fill = b.fill.data();
    const NodeId* fill_to = b.fill_to.data();
    for (std::size_t i = 0; i < nmsg; ++i) {
      if (validate_) {
        const Incoming& in = fill[i];
        const std::size_t dir =
            static_cast<std::size_t>(in.edge) * 2 +
            (in.from == edge_ends_[static_cast<std::size_t>(in.edge)].first
                 ? 0
                 : 1);
        LCS_CHECK(edge_dir_stamp_[dir] != tick_,
                  "CONGEST violation: two sends over one edge in one round");
        edge_dir_stamp_[dir] = tick_;
      }
      count_message_to(fill_to[i], now, out);
    }
    for (const NodeId v : b.wakes) {
      NodeState& st = node_state_[static_cast<std::size_t>(v)];
      if (st.stamp != now) {
        st.stamp = now;
        st.count = 0;
        out.push_back(v);
      }
    }
  }
}

void Network::finish_parallel_merge() {
  // Concatenate the per-range next-active lists range-major. Ranges are
  // ascending id spans, so the segments land pre-partitioned for the next
  // promotion (each worker sorts its own segment there); the bounds are
  // recorded now, while the per-range sizes are still known.
  range_active_bounds_.resize(static_cast<std::size_t>(num_ranges_) + 1);
  range_active_bounds_[0] = 0;
  for (int r = 0; r < num_ranges_; ++r)
    range_active_bounds_[static_cast<std::size_t>(r) + 1] =
        range_active_bounds_[static_cast<std::size_t>(r)] +
        merge_next_[static_cast<std::size_t>(r)].size();
  for (int r = 0; r < num_ranges_; ++r) {
    std::vector<NodeId>& part = merge_next_[static_cast<std::size_t>(r)];
    next_active_.insert(next_active_.end(), part.begin(), part.end());
    part.clear();
  }
}

void Network::run_parallel_round(std::span<Process* const> procs,
                                 const Incoming* ordered, std::int64_t round) {
  // Contiguous weight-balanced shards of the sorted active list: worker w
  // processes active_[bounds[w], bounds[w+1]). Weight = inbox size plus a
  // constant per activation, so message-heavy and wakeup-heavy rounds
  // both split evenly. Bounds depend only on deterministic per-round
  // state, so lane contents — and hence the merge order — are
  // reproducible at any thread count.
  constexpr std::int64_t kActivationWeight = 4;
  const std::size_t nactive = active_.size();
  const auto k = static_cast<std::size_t>(threads_);
  shard_bounds_.assign(k + 1, nactive);
  shard_bounds_[0] = 0;
  std::int64_t total_weight = 0;
  for (std::size_t i = 0; i < nactive; ++i)
    total_weight += spans_[i].count + kActivationWeight;
  std::int64_t acc = 0;
  for (std::size_t i = 0, w = 1; i < nactive && w < k; ++i) {
    acc += spans_[i].count + kActivationWeight;
    while (w < k && acc >= total_weight * static_cast<std::int64_t>(w) /
                               static_cast<std::int64_t>(k))
      shard_bounds_[w++] = i + 1;
  }

  // One pool dispatch for both halves of the round: deliver into the
  // lanes, then (one barrier later) merge the destination ranges.
  const NodeId num_nodes = graph_->num_nodes();
  pool_->run_staged(2, [&](int stage, int worker) {
    if (stage == 0) {
      const auto uw = static_cast<std::size_t>(worker);
      SendLane* lane = &lanes_[uw];
      for (std::size_t i = shard_bounds_[uw]; i < shard_bounds_[uw + 1];
           ++i) {
        const NodeId v = active_[i];
        const auto nbrs = graph_->neighbors(v);
        Context ctx(*this, v, num_nodes, round, nbrs, lane);
        procs[static_cast<std::size_t>(v)]->on_round(
            ctx, {ordered + spans_[i].start,
                  static_cast<std::size_t>(spans_[i].count)});
      }
    } else if (worker < num_ranges_) {
      merge_range(worker);
    }
  });
}

PhaseStats Network::run(std::span<Process* const> procs,
                        std::int64_t max_rounds) {
  LCS_CHECK(procs.size() == static_cast<std::size_t>(graph_->num_nodes()),
            "one process per node required");
  LCS_CHECK(!in_phase_,
            "Network::run is not reentrant (called from a process "
            "callback?)");
  in_phase_ = true;
  ++phases_;
  struct InPhaseReset {  // clears the flag on every exit, aborts included
    bool* flag;
    ~InPhaseReset() { *flag = false; }
  } in_phase_reset{&in_phase_};

  // Phase startup is O(active): a previous clean phase ends quiescent
  // (nothing in flight), an aborted one leaves only these containers
  // non-empty — stamp-guarded state needs no reset either way because the
  // tick advances past every stamp an earlier phase wrote.
  slab_fill_.clear();
  slab_fill_to_.clear();
  for (SendLane& lane : lanes_) lane.clear();
  for (std::vector<NodeId>& part : merge_next_) part.clear();
  next_active_.clear();
  active_.clear();
  fill_in_lanes_ = false;
  phase_messages_ = 0;
  advance_tick();

  const NodeId num_nodes = graph_->num_nodes();

  // Round -1: on_start for every node (sends arrive in round 0). In
  // parallel mode the nodes are sharded evenly; the merge stage follows
  // one barrier later, exactly like a delivery round's. Networks below
  // the fallback threshold start sequentially — same observables.
  if (threads_ <= 1 ||
      static_cast<std::int64_t>(num_nodes) < parallel_threshold_) {
    for (NodeId v = 0; v < num_nodes; ++v) {
      Context ctx(*this, v, num_nodes, -1, graph_->neighbors(v));
      procs[static_cast<std::size_t>(v)]->on_start(ctx);
    }
  } else {
    const auto n = static_cast<std::size_t>(num_nodes);
    const auto k = static_cast<std::size_t>(threads_);
    pool_->run_staged(2, [&](int stage, int worker) {
      const auto uw = static_cast<std::size_t>(worker);
      if (stage == 0) {
        SendLane* lane = &lanes_[uw];
        const std::size_t lo = n * uw / k;
        const std::size_t hi = n * (uw + 1) / k;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto v = util::checked_cast<NodeId>(i);
          Context ctx(*this, v, num_nodes, -1, graph_->neighbors(v), lane);
          procs[i]->on_start(ctx);
        }
      } else if (worker < num_ranges_) {
        merge_range(worker);
      }
    });
    finish_parallel_merge();
    fill_in_lanes_ = true;
  }

  std::int64_t round = 0;
  while (!next_active_.empty()) {
    LCS_CHECK(round < max_rounds,
              "phase exceeded max_rounds without quiescing");

    // This round's work level — pending messages plus activations —
    // decides the engine path up front: below the threshold the round
    // runs end to end on the sequential path (no pool dispatch), above it
    // promotion, delivery, and merge all run on the pool. Observables are
    // identical either way.
    std::size_t nmsg = 0;
    if (fill_in_lanes_) {
      for (const SendLane& lane : lanes_)
        for (const LaneBucket& b : lane.buckets) nmsg += b.fill.size();
    } else {
      nmsg = slab_fill_.size();
    }
    const bool par_round =
        threads_ > 1 &&
        static_cast<std::int64_t>(nmsg) +
                static_cast<std::int64_t>(next_active_.size()) >=
            parallel_threshold_;
    LCS_CHECK(static_cast<std::int64_t>(nmsg) <= INT32_MAX,
              "engine limit exceeded: more than 2^31 - 1 messages in one "
              "round");
    phase_messages_ += static_cast<std::int64_t>(nmsg);

    // Promote next-round state to current: order this round's deliveries
    // destination-major in ascending node order (the engine's
    // deterministic processing order), send-ordered within each
    // destination, so each inbox span reads exactly like the per-node
    // vector of the historical engine. Lane-resident sends (previous
    // round ran parallel) scatter per destination range — on the pool
    // when this round is parallel too, serially otherwise; fill-slab
    // sends take the sequential cursor scatter.
    active_.swap(next_active_);
    next_active_.clear();
    const Incoming* ordered;
    if (fill_in_lanes_) {
      if (par_round) {
        ordered = promote_parallel(nmsg);  // sorts its segments itself
      } else {
        sort_active(active_);
        ordered = scatter_lanes_sequential(nmsg);
      }
      fill_in_lanes_ = false;
    } else {
      sort_active(active_);  // deterministic ascending order
      ordered = cursor_scatter(nmsg);
      slab_fill_.clear();
      slab_fill_to_.clear();
    }
    advance_tick();  // this round's sends stamp separately from deliveries

    if (!par_round) {
      for (std::size_t i = 0; i < active_.size(); ++i) {
        const NodeId v = active_[i];
        const auto nbrs = graph_->neighbors(v);
        Context ctx(*this, v, num_nodes, round, nbrs);
        procs[static_cast<std::size_t>(v)]->on_round(
            ctx, {ordered + spans_[i].start,
                  static_cast<std::size_t>(spans_[i].count)});
      }
    } else {
      run_parallel_round(procs, ordered, round);
      finish_parallel_merge();
      fill_in_lanes_ = true;
    }
    ++round;
  }

  const PhaseStats stats{round, phase_messages_};
  total_rounds_ += stats.rounds;
  total_messages_ += stats.messages;
  return stats;
}

void Network::add_replayed(const PhaseStats& stats) {
  LCS_CHECK(!in_phase_,
            "add_replayed may not be called while a phase is running");
  LCS_CHECK(stats.rounds >= 0 && stats.messages >= 0,
            "replayed stats must be non-negative");
  total_rounds_ += stats.rounds;
  total_messages_ += stats.messages;
}

}  // namespace lcs::congest
