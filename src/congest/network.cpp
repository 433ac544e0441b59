#include "congest/network.h"

#include <algorithm>

#include "congest/message.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "util/cast.h"
#include "util/check.h"

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

void Network::do_send(NodeId from, EdgeId e, const Message& m,
                      std::span<const Graph::Neighbor> from_neighbors) {
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
  NodeState& st = node_state_[static_cast<std::size_t>(to)];
  const std::int32_t now = tick32();
  if (st.stamp != now) {
    st.stamp = now;
    st.count = 1;
    next_active_.push_back(to);
  } else {
    LCS_CHECK(st.count != INT32_MAX,
              "engine limit exceeded: a node received 2^31 - 1 messages in "
              "one round");
    ++st.count;
  }
}

void Network::do_wake(NodeId v) {
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

void Network::sort_active() {
  NodeId* data = active_.data();
  const std::size_t size = active_.size();
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
  radix_scratch_.resize(size);
  NodeId* src = data;
  NodeId* dst = radix_scratch_.data();
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

const Incoming* Network::cursor_scatter(std::size_t nmsg) {
  // Inbox spans from the per-node message counts (prefix sum over the
  // sorted active list); `NodeState::count` doubles as the scatter's
  // write cursor.
  spans_.resize(active_.size());
  std::int64_t total = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (i + 16 < active_.size())
      __builtin_prefetch(
          &node_state_[static_cast<std::size_t>(active_[i + 16])], 1);
    NodeState& st = node_state_[static_cast<std::size_t>(active_[i])];
    spans_[i] = InboxSpan{util::checked_cast<std::int32_t>(total), st.count};
    st.count = util::checked_cast<std::int32_t>(total);  // scatter write cursor
    total += spans_[i].count;
  }
  LCS_CHECK(total == static_cast<std::int64_t>(nmsg),
            "inbox accounting out of sync");

  // Grow-only: the ordered arena is fully overwritten up to `nmsg` by the
  // scatter, so shrinking (and re-initializing on regrowth) would be pure
  // waste.
  if (slab_ordered_.size() < nmsg) slab_ordered_.resize(nmsg);

  const Incoming* fill = slab_fill_.data();
  const NodeId* fill_to = slab_fill_to_.data();
  for (std::size_t i = 0; i < nmsg; ++i) {
    // Two-stage prefetch pipeline over the pass's only cold lines: the
    // per-destination cursor (64 ahead), then the store target it points
    // at (24 ahead; a stale cursor there only weakens the hint).
    if (i + 64 < nmsg)
      __builtin_prefetch(
          &node_state_[static_cast<std::size_t>(fill_to[i + 64])], 1);
    if (i + 24 < nmsg)
      __builtin_prefetch(
          &slab_ordered_[static_cast<std::size_t>(
              node_state_[static_cast<std::size_t>(fill_to[i + 24])].count)],
          1);
    NodeState& st = node_state_[static_cast<std::size_t>(fill_to[i])];
    slab_ordered_[static_cast<std::size_t>(st.count++)] = fill[i];
  }
  return slab_ordered_.data();
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
  next_active_.clear();
  active_.clear();
  phase_messages_ = 0;
  advance_tick();

  const NodeId num_nodes = graph_->num_nodes();

  // Round -1: on_start for every node (sends arrive in round 0).
  for (NodeId v = 0; v < num_nodes; ++v) {
    Context ctx(*this, v, num_nodes, -1, graph_->neighbors(v));
    procs[static_cast<std::size_t>(v)]->on_start(ctx);
  }

  std::int64_t round = 0;
  while (!next_active_.empty()) {
    LCS_CHECK(round < max_rounds,
              "phase exceeded max_rounds without quiescing");
    const std::size_t nmsg = slab_fill_.size();
    LCS_CHECK(static_cast<std::int64_t>(nmsg) <= INT32_MAX,
              "engine limit exceeded: more than 2^31 - 1 messages in one "
              "round");
    phase_messages_ += static_cast<std::int64_t>(nmsg);

    // Promote next-round state to current: order this round's deliveries
    // destination-major in ascending node order (the engine's
    // deterministic processing order), send-ordered within each
    // destination, so each inbox span reads exactly like the per-node
    // vector of the historical engine.
    active_.swap(next_active_);
    next_active_.clear();
    sort_active();
    const Incoming* ordered = cursor_scatter(nmsg);
    slab_fill_.clear();
    slab_fill_to_.clear();
    advance_tick();  // this round's sends stamp separately from deliveries

    for (std::size_t i = 0; i < active_.size(); ++i) {
      const NodeId v = active_[i];
      Context ctx(*this, v, num_nodes, round, graph_->neighbors(v));
      procs[static_cast<std::size_t>(v)]->on_round(
          ctx, {ordered + spans_[i].start,
                static_cast<std::size_t>(spans_[i].count)});
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
