#include "congest/network.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "util/check.h"

namespace lcs::congest {

Network::Network(const Graph& graph) : graph_(&graph) {}

void Network::do_send(NodeId from, EdgeId e, const Message& m) {
  const Graph::Edge& edge = graph_->edge(e);
  if (validate_) {
    LCS_CHECK(edge.u == from || edge.v == from,
              "process tried to send over a non-incident edge");
    std::int64_t& last =
        edge_send_round_[static_cast<std::size_t>(e) * 2 +
                         (from == edge.u ? 0 : 1)];
    LCS_CHECK(last != send_round_,
              "CONGEST violation: two sends over one edge in one round");
    last = send_round_;
  }
  const NodeId to = edge.u == from ? edge.v : edge.u;
  sends_.emplace_back(to, Incoming{from, e, m});
  ++count_[static_cast<std::size_t>(to)];
  do_wake(to);
}

void Network::do_wake(NodeId v) {
  char& queued = queued_[static_cast<std::size_t>(v)];
  if (queued) return;
  queued = 1;
  next_active_.push_back(v);
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

  // The first phase allocates the per-node and per-edge state; a network
  // whose schedules are all counted on the host never needs it.
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  if (queued_.size() != n) {
    edge_send_round_.assign(static_cast<std::size_t>(graph_->num_edges()) * 2,
                            0);
    count_.assign(n, 0);
    queued_.assign(n, 0);
  }
  // A clean phase ends with nothing queued; an aborted one may leave nodes
  // queued with counts in either list. Clearing just those keeps startup
  // O(active), and the new send round outdates every edge stamp.
  for (const std::vector<NodeId>* list : {&active_, &next_active_}) {
    for (const NodeId v : *list) {
      count_[static_cast<std::size_t>(v)] = 0;
      queued_[static_cast<std::size_t>(v)] = 0;
    }
  }
  active_.clear();
  next_active_.clear();
  sends_.clear();
  ++send_round_;

  const NodeId num_nodes = graph_->num_nodes();

  // Round -1: on_start for every node (sends arrive in round 0).
  for (NodeId v = 0; v < num_nodes; ++v) {
    Context ctx(*this, v, num_nodes, -1, graph_->neighbors(v));
    procs[static_cast<std::size_t>(v)]->on_start(ctx);
  }

  PhaseStats stats;
  while (!next_active_.empty()) {
    LCS_CHECK(stats.rounds < max_rounds,
              "phase exceeded max_rounds without quiescing");
    stats.messages += static_cast<std::int64_t>(sends_.size());

    // Deliver in ascending node order, send order within each inbox: a
    // prefix sum over the sorted active list turns each node's count into
    // its write cursor, and the scatter leaves it at the inbox's end.
    active_.swap(next_active_);
    std::sort(active_.begin(), active_.end());
    std::size_t offset = 0;
    for (const NodeId v : active_) {
      std::size_t& count = count_[static_cast<std::size_t>(v)];
      offset += std::exchange(count, offset);
    }
    if (inboxes_.size() < sends_.size()) inboxes_.resize(sends_.size());
    for (const auto& [to, in] : sends_)
      inboxes_[count_[static_cast<std::size_t>(to)]++] = in;
    sends_.clear();
    inbox_end_.clear();
    for (const NodeId v : active_) {
      const auto i = static_cast<std::size_t>(v);
      inbox_end_.push_back(std::exchange(count_[i], 0));
      queued_[i] = 0;
    }
    next_active_.clear();
    ++send_round_;

    std::size_t begin = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const NodeId v = active_[i];
      Context ctx(*this, v, num_nodes, stats.rounds, graph_->neighbors(v));
      procs[static_cast<std::size_t>(v)]->on_round(
          ctx, {inboxes_.data() + begin, inbox_end_[i] - begin});
      begin = inbox_end_[i];
    }
    ++stats.rounds;
  }

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
