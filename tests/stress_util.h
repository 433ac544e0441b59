/// \file stress_util.h
/// The randomized engine stress harness behind the engine semantics tests
/// (`congest_test.cpp`) and the concurrent-run tests
/// (`parallel_determinism_test.cpp`): a hash-driven multi-round workload
/// whose behavior is a pure function of (seed, node, round, edge), a
/// Process wrapper that logs every delivery in order, a direct
/// transcription of the historical vector-of-vectors engine as the ground
/// truth, and three processes that break an engine rule (a double send, a
/// non-incident send, a per-node inbox overflow).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "util/cast.h"

namespace lcs::testutil {

inline std::uint64_t stress_mix(std::uint64_t a, std::uint64_t b,
                                std::uint64_t c, std::uint64_t d) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x += c * 0x94d049bb133111ebULL + d;
  x ^= x >> 27;
  x *= 0x2545f4914f6cdd1dULL;
  return x ^ (x >> 31);
}

/// One delivered message as seen by a node, in delivery order.
struct DeliveryRecord {
  std::int64_t round;
  NodeId from;
  EdgeId edge;
  std::uint32_t tag;
  std::uint64_t word0;
  bool operator==(const DeliveryRecord&) const = default;
};

/// The workload's per-round behavior, shared verbatim by the Process
/// wrapper (real engine) and the reference engine: pseudo-randomly forward
/// over a hash-chosen subset of incident edges (at most once per edge per
/// round, as CONGEST requires) and request hash-chosen wakeups, quiescing
/// by round 25. The moduli are the send/wake dice denominators — the
/// defaults are the standard workload; smaller values give denser traffic,
/// with multi-message inboxes and large per-round volume.
struct StressBehavior {
  std::uint64_t seed;
  std::uint64_t start_send_mod = 4;
  std::uint64_t round_send_mod = 3;
  std::uint64_t wake_mod = 4;

  template <class SendFn, class WakeFn>
  void step(NodeId v, std::int64_t round,
            std::span<const Graph::Neighbor> neighbors, SendFn&& send,
            WakeFn&& wake) const {
    if (round >= 25) return;
    const std::uint64_t modulus = round < 0 ? start_send_mod : round_send_mod;
    for (const auto& nb : neighbors) {
      if (stress_mix(seed, static_cast<std::uint64_t>(v),
                     static_cast<std::uint64_t>(round + 2),
                     static_cast<std::uint64_t>(nb.edge)) %
              modulus ==
          0) {
        send(nb.edge,
             congest::Message(util::checked_cast<std::uint32_t>(v),
                              static_cast<std::uint64_t>(round + 2),
                              static_cast<std::uint64_t>(nb.edge)));
      }
    }
    if (round < 20 && stress_mix(seed, static_cast<std::uint64_t>(v),
                                 static_cast<std::uint64_t>(round + 2),
                                 0xabcdefULL) %
                              wake_mod ==
                          0) {
      wake();
    }
  }
};

class StressProcess final : public congest::Process {
 public:
  StressProcess(NodeId id, StressBehavior behavior,
                std::vector<DeliveryRecord>* log)
      : id_(id), behavior_(behavior), log_(log) {}

  void on_start(congest::Context& ctx) override {
    behavior_.step(
        id_, -1, ctx.neighbors(),
        [&](EdgeId e, const congest::Message& m) { ctx.send(e, m); },
        [&] { ctx.wake_next_round(); });
  }

  void on_round(congest::Context& ctx,
                std::span<const congest::Incoming> inbox) override {
    for (const auto& in : inbox)
      log_->push_back(DeliveryRecord{ctx.round(), in.from, in.edge,
                                     in.msg.tag, in.msg.words[0]});
    behavior_.step(
        id_, ctx.round(), ctx.neighbors(),
        [&](EdgeId e, const congest::Message& m) { ctx.send(e, m); },
        [&] { ctx.wake_next_round(); });
  }

 private:
  NodeId id_;
  StressBehavior behavior_;
  std::vector<DeliveryRecord>* log_;
};

/// Sends two messages over the same edge in one round — a CONGEST
/// violation that validation must reject.
class DoubleSendProcess final : public congest::Process {
 public:
  explicit DoubleSendProcess(NodeId id) : id_(id) {}
  void on_start(congest::Context& ctx) override {
    if (id_ != 0) return;
    ctx.send(ctx.neighbors().front().edge, congest::Message(1));
    ctx.send(ctx.neighbors().front().edge, congest::Message(2));
  }
  void on_round(congest::Context&,
                std::span<const congest::Incoming>) override {}

 private:
  NodeId id_;
};

/// Sends over an edge not incident to the sender (on a path of at least
/// three nodes).
class ForeignEdgeProcess final : public congest::Process {
 public:
  explicit ForeignEdgeProcess(NodeId id) : id_(id) {}
  void on_start(congest::Context& ctx) override {
    if (id_ == 0) ctx.send(1, congest::Message(1));  // edge 1 joins nodes 1-2
  }
  void on_round(congest::Context&,
                std::span<const congest::Incoming>) override {}

 private:
  NodeId id_;
};

/// Primes node 0's first neighbor's per-round inbox count at 2^31 - 1, then
/// sends it one message: the engine must diagnose the overflow at that send.
class InboxOverflowProcess final : public congest::Process {
 public:
  InboxOverflowProcess(NodeId id, congest::Network* net) : id_(id), net_(net) {}
  void on_start(congest::Context& ctx) override {
    if (id_ != 0) return;
    congest::NetworkTestPeer::prime_inbox_count(
        *net_, ctx.neighbors().front().node, INT32_MAX);
    ctx.send(ctx.neighbors().front().edge, congest::Message(1));
  }
  void on_round(congest::Context&,
                std::span<const congest::Incoming>) override {}

 private:
  NodeId id_;
  congest::Network* net_;
};

/// Direct transcription of the pre-rewrite engine: per-node inbox vectors,
/// a bool active-flag array and a `std::sort`ed active list per round.
inline congest::PhaseStats reference_run(
    const Graph& g, StressBehavior behavior,
    std::vector<std::vector<DeliveryRecord>>& logs) {
  using congest::Incoming;
  using congest::Message;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<Incoming>> inbox(n), next_inbox(n);
  std::vector<bool> in_next_active(n, false);
  std::vector<NodeId> next_active;
  std::int64_t messages = 0;

  auto deliver = [&](NodeId from, EdgeId e, const Message& m) {
    const NodeId to = g.other_endpoint(e, from);
    next_inbox[static_cast<std::size_t>(to)].push_back(Incoming{from, e, m});
    ++messages;
    if (!in_next_active[static_cast<std::size_t>(to)]) {
      in_next_active[static_cast<std::size_t>(to)] = true;
      next_active.push_back(to);
    }
  };
  auto wake = [&](NodeId v) {
    if (!in_next_active[static_cast<std::size_t>(v)]) {
      in_next_active[static_cast<std::size_t>(v)] = true;
      next_active.push_back(v);
    }
  };

  for (NodeId v = 0; v < g.num_nodes(); ++v)
    behavior.step(
        v, -1, g.neighbors(v),
        [&](EdgeId e, const Message& m) { deliver(v, e, m); },
        [&] { wake(v); });

  std::int64_t round = 0;
  std::vector<NodeId> active;
  while (!next_active.empty()) {
    active.swap(next_active);
    next_active.clear();
    std::sort(active.begin(), active.end());
    for (const NodeId v : active) {
      inbox[static_cast<std::size_t>(v)].swap(
          next_inbox[static_cast<std::size_t>(v)]);
      next_inbox[static_cast<std::size_t>(v)].clear();
      in_next_active[static_cast<std::size_t>(v)] = false;
    }
    for (const NodeId v : active) {
      for (const auto& in : inbox[static_cast<std::size_t>(v)])
        logs[static_cast<std::size_t>(v)].push_back(DeliveryRecord{
            round, in.from, in.edge, in.msg.tag, in.msg.words[0]});
      behavior.step(
          v, round, g.neighbors(v),
          [&](EdgeId e, const Message& m) { deliver(v, e, m); },
          [&] { wake(v); });
      inbox[static_cast<std::size_t>(v)].clear();
    }
    ++round;
  }
  return congest::PhaseStats{round, messages};
}

}  // namespace lcs::testutil
