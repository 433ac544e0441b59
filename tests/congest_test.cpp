#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "stress_util.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {
namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;
using congest::Network;
using congest::PhaseStats;
using congest::Process;
using testutil::DoubleSendProcess;
using testutil::ForeignEdgeProcess;

/// Floods a token from node 0; records the round each node first hears it.
class FloodProcess final : public Process {
 public:
  explicit FloodProcess(NodeId id) : id_(id) {}
  std::int64_t heard_round = -1;

  void on_start(Context& ctx) override {
    if (id_ != 0) return;
    heard_round = 0;
    for (const auto& nb : ctx.neighbors()) ctx.send(nb.edge, Message(1));
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    if (heard_round >= 0 || inbox.empty()) return;
    heard_round = ctx.round() + 1;  // distance = delivery round + 1
    for (const auto& nb : ctx.neighbors()) {
      const bool from_sender =
          std::any_of(inbox.begin(), inbox.end(),
                      [&](const Incoming& in) { return in.edge == nb.edge; });
      if (!from_sender) ctx.send(nb.edge, Message(1));
    }
  }

 private:
  NodeId id_;
};

TEST(Network, FloodTakesEccentricityRounds) {
  const Graph g = make_path(10);
  Network net(g);
  std::vector<FloodProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  const PhaseStats stats = congest::run_phase(net, procs);
  // Token reaches node 9 after 9 rounds.
  EXPECT_EQ(procs[9].heard_round, 9);
  EXPECT_EQ(stats.rounds, 9);
  EXPECT_EQ(stats.messages, 9);
  EXPECT_EQ(net.total_rounds(), 9);
}

TEST(Network, FloodDistanceMatchesBfsOnGrid) {
  const Graph g = make_grid(5, 5);
  Network net(g);
  std::vector<FloodProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  congest::run_phase(net, procs);
  // Node (4,4) = id 24 is 8 hops from node 0.
  EXPECT_EQ(procs[24].heard_round, 8);
}

TEST(Network, RejectsTwoSendsOnOneEdgePerRound) {
  const Graph g = make_path(2);
  Network net(g);
  std::vector<DoubleSendProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  EXPECT_THROW(congest::run_phase(net, procs), CheckFailure);
}

/// Both directions of one edge in the same round are fine.
class PingPongProcess final : public Process {
 public:
  explicit PingPongProcess(NodeId id) : id_(id) {}
  int received = 0;
  void on_start(Context& ctx) override {
    ctx.send(ctx.neighbors().front().edge, Message(7));
  }
  void on_round(Context&, std::span<const Incoming> inbox) override {
    received += util::checked_cast<int>(inbox.size());
  }

 private:
  NodeId id_;
};

TEST(Network, BothDirectionsOfAnEdgeAreIndependent) {
  const Graph g = make_path(2);
  Network net(g);
  std::vector<PingPongProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  const PhaseStats stats = congest::run_phase(net, procs);
  EXPECT_EQ(procs[0].received, 1);
  EXPECT_EQ(procs[1].received, 1);
  EXPECT_EQ(stats.messages, 2);
}

TEST(Network, RejectsNonIncidentSend) {
  const Graph g = make_path(3);
  Network net(g);
  std::vector<ForeignEdgeProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  EXPECT_THROW(congest::run_phase(net, procs), CheckFailure);
}

/// Wakes itself k times without any messages.
class SelfWakeProcess final : public Process {
 public:
  explicit SelfWakeProcess(NodeId id) : id_(id) {}
  int invocations = 0;
  void on_start(Context& ctx) override {
    if (id_ == 0) ctx.wake_next_round();
  }
  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    EXPECT_TRUE(inbox.empty());
    ++invocations;
    if (invocations < 3) ctx.wake_next_round();
  }

 private:
  NodeId id_;
};

TEST(Network, WakeupsDriveRoundsWithoutMessages) {
  const Graph g = make_path(2);
  Network net(g);
  std::vector<SelfWakeProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  const PhaseStats stats = congest::run_phase(net, procs);
  EXPECT_EQ(procs[0].invocations, 3);
  EXPECT_EQ(stats.rounds, 3);
  EXPECT_EQ(stats.messages, 0);
}

/// Never stops waking itself: must trip the round limit.
class LivelockProcess final : public Process {
 public:
  void on_start(Context& ctx) override { ctx.wake_next_round(); }
  void on_round(Context& ctx, std::span<const Incoming>) override {
    ctx.wake_next_round();
  }
};

TEST(Network, RoundLimitCatchesNonQuiescence) {
  const Graph g = make_path(2);
  Network net(g);
  std::vector<LivelockProcess> procs(2);
  EXPECT_THROW(congest::run_phase(net, procs, /*max_rounds=*/100),
               CheckFailure);
}

TEST(Network, AccountingAccumulatesAcrossPhases) {
  const Graph g = make_path(4);
  Network net(g);
  for (int phase = 0; phase < 3; ++phase) {
    std::vector<FloodProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
    congest::run_phase(net, procs);
  }
  EXPECT_EQ(net.total_rounds(), 3 * 3);
  EXPECT_EQ(net.total_messages(), 3 * 3);
}

// ---------------------------------------------------------------------------
// Engine semantics stress test: the engine must match a direct
// reimplementation of the historical vector-of-vectors engine — identical
// PhaseStats and identical per-node delivery order — on a randomized
// multi-phase workload over several topologies. The harness lives in
// stress_util.h.

using testutil::DeliveryRecord;
using testutil::reference_run;
using testutil::StressBehavior;
using testutil::StressProcess;

/// `dice` sets the send/wake moduli of every phase (its seed is replaced
/// per phase).
void run_stress_comparison(const Graph& g, bool validate,
                           StressBehavior dice = StressBehavior{0}) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  Network net(g);
  net.set_validate(validate);
  // Multiple phases on one Network exercise the reuse of all per-phase
  // state (nothing is reset O(n) between phases).
  for (std::uint64_t phase = 0; phase < 3; ++phase) {
    StressBehavior behavior = dice;
    behavior.seed = 0x5eed0000 + phase;

    std::vector<std::vector<DeliveryRecord>> got_logs(n);
    std::vector<StressProcess> procs;
    procs.reserve(n);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      procs.emplace_back(v, behavior, &got_logs[static_cast<std::size_t>(v)]);
    const PhaseStats got = congest::run_phase(net, procs);

    std::vector<std::vector<DeliveryRecord>> want_logs(n);
    const PhaseStats want = reference_run(g, behavior, want_logs);

    EXPECT_EQ(got.rounds, want.rounds) << "phase " << phase;
    EXPECT_EQ(got.messages, want.messages) << "phase " << phase;
    ASSERT_EQ(got_logs, want_logs) << "phase " << phase;
  }
}

TEST(NetworkStress, MatchesReferenceEngineOnGrid) {
  run_stress_comparison(make_grid(9, 7), /*validate=*/true);
}

TEST(NetworkStress, MatchesReferenceEngineOnErdosRenyi) {
  run_stress_comparison(make_erdos_renyi(150, 0.06, 11), /*validate=*/true);
}

TEST(NetworkStress, MatchesReferenceEngineOnWheelHub) {
  // One hub adjacent to every rim node: the highest-degree sender and the
  // busiest inbox.
  run_stress_comparison(make_wheel(40), /*validate=*/true);
}

TEST(NetworkStress, MatchesReferenceEngineWithValidationOff) {
  run_stress_comparison(make_grid(8, 8), /*validate=*/false);
}

TEST(NetworkStress, HeavyTrafficMatchesReferenceEngine) {
  // Dense dice on a ~deg-12 random graph: thousands of messages per round
  // and multi-message inboxes, so the active-list sort and the counting
  // scatter run with real work in every round.
  const StressBehavior dense{0, /*start_send_mod=*/2, /*round_send_mod=*/2,
                             /*wake_mod=*/3};
  for (const bool validate : {true, false})
    run_stress_comparison(make_erdos_renyi(600, 0.02, 13), validate, dense);
}

TEST(Network, DoubleSendFiresInValidateMode) {
  const Graph g = make_path(2);
  Network net(g);
  net.set_validate(true);
  std::vector<DoubleSendProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  EXPECT_THROW(congest::run_phase(net, procs), CheckFailure);
}

TEST(Network, DoubleSendIsNotDiagnosedWithValidationOff) {
  // With validation off the CONGEST checks are skipped entirely: the
  // violating phase runs to completion and both messages are delivered.
  const Graph g = make_path(2);
  Network net(g);
  net.set_validate(false);
  std::vector<DoubleSendProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  const PhaseStats stats = congest::run_phase(net, procs);
  EXPECT_EQ(stats.messages, 2);
}

TEST(Network, RecoversAfterAbortedPhase) {
  // A phase that dies mid-flight (CONGEST violation) leaves sends and
  // queued nodes behind; the next run on the same Network must start clean.
  const Graph g = make_path(4);
  Network net(g);
  {
    std::vector<DoubleSendProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
    EXPECT_THROW(congest::run_phase(net, procs), CheckFailure);
  }
  std::vector<FloodProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  const PhaseStats stats = congest::run_phase(net, procs);
  EXPECT_EQ(stats.rounds, 3);
  EXPECT_EQ(stats.messages, 3);
  EXPECT_EQ(procs[3].heard_round, 3);
}

// ---------------------------------------------------------------------------
// `run` is not reentrant: a process callback that starts a phase on its
// own network is diagnosed, and the aborted phase must not wedge the
// network.

class ReentrantRunProcess final : public Process {
 public:
  ReentrantRunProcess(NodeId id, Network* net) : id_(id), net_(net) {}
  void on_start(Context& ctx) override {
    if (id_ == 0) ctx.send(ctx.neighbors().front().edge, Message(1));
  }
  void on_round(Context&, std::span<const Incoming>) override {
    // Its own pointer view: run_phase would refill the network's scratch,
    // which backs the running phase's process span.
    std::vector<FloodProcess> inner;
    std::vector<Process*> ptrs;
    inner.reserve(static_cast<std::size_t>(net_->num_nodes()));
    for (NodeId v = 0; v < net_->num_nodes(); ++v) {
      inner.emplace_back(v);
      ptrs.push_back(&inner.back());
    }
    net_->run(ptrs);  // documented misuse: diagnosed
  }

 private:
  NodeId id_;
  Network* net_;
};

TEST(NetworkGuards, RunInsideRunningPhaseThrows) {
  const Graph g = make_path(4);
  Network net(g);
  std::vector<ReentrantRunProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v, &net);
  try {
    congest::run_phase(net, procs);
    FAIL() << "run inside a phase must throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("not reentrant"), std::string::npos);
  }
  // The guard clears on the aborted phase: the next phase runs and matches
  // the reference engine.
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<DeliveryRecord>> logs(n);
  const StressBehavior behavior{0x5eed0000};
  std::vector<StressProcess> stress;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    stress.emplace_back(v, behavior, &logs[static_cast<std::size_t>(v)]);
  const PhaseStats got = congest::run_phase(net, stress);
  std::vector<std::vector<DeliveryRecord>> want_logs(n);
  const PhaseStats want = reference_run(g, behavior, want_logs);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(logs, want_logs);
}

TEST(Message, PayloadIsBounded) {
  // Compile-time guarantee that a message cannot grow beyond O(log n) bits:
  // the payload is a fixed array of words.
  static_assert(Message::kMaxWords == 3);
  static_assert(sizeof(Message::words) == 3 * sizeof(std::uint64_t));
  SUCCEED();
}

}  // namespace
}  // namespace lcs
