/// \file parallel_determinism_test.cpp
/// The parallel engine's determinism contract (network.h, "Parallel
/// mode"): at every thread count, `PhaseStats`, per-node inbox contents,
/// delivery order, the accounting totals, and the validation diagnostics
/// must be bit-identical to the sequential engine — which in turn matches
/// the historical vector-of-vectors reference. Exercised on the PR-1
/// randomized stress harness (stress_util.h) over several topologies, on
/// multi-phase reuse of one Network, on aborted phases, on mid-life thread
/// count switches, end to end on the shortcut-Boruvka MST pipeline and on
/// part-leader election, and on the superstep runner (its host pipeline
/// against an engine-only superstep).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/reference.h"
#include "mst/boruvka_shortcut.h"
#include "mst/mwoe.h"
#include "shortcut/existential.h"
#include "shortcut/part_routing.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_routing.h"
#include "stress_util.h"
#include "test_util.h"
#include "tree/spanning_tree.h"
#include "util/check.h"

namespace lcs {
namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;
using congest::Network;
using congest::PhaseStats;
using congest::Process;
using testutil::DeliveryRecord;
using testutil::reference_run;
using testutil::StressBehavior;
using testutil::StressProcess;

/// Everything one stress run observes: per-phase stats, per-node delivery
/// logs (one vector per node, in delivery order), and the accounting
/// totals after all phases.
struct StressObservation {
  std::vector<PhaseStats> phase_stats;
  std::vector<std::vector<DeliveryRecord>> logs;
  std::int64_t total_rounds = 0;
  std::int64_t total_messages = 0;
};

/// Variations of one stress run that must not change any observable.
struct StressOptions {
  int threads = 1;
  bool validate = true;
  int phases = 3;
  /// Adaptive-fallback threshold: 0 pins every round to the parallel
  /// promotion path; kDefaultParallelRoundThreshold leaves the engine's
  /// own tiny-round fallback in charge; small positive values make rounds
  /// flip between the paths inside one phase.
  std::int64_t threshold = Network::kDefaultParallelRoundThreshold;
  /// Send/wake dice (see StressBehavior); the default is the PR-1 load.
  std::uint64_t start_send_mod = 4;
  std::uint64_t round_send_mod = 3;
  std::uint64_t wake_mod = 4;
};

StressBehavior behavior_for(const StressOptions& opt, int phase) {
  return StressBehavior{0x5eed0000 + static_cast<std::uint64_t>(phase),
                        opt.start_send_mod, opt.round_send_mod, opt.wake_mod};
}

/// Run `opt.phases` stress phases on one Network. Multiple phases on one
/// Network exercise the epoch-stamped reuse of all per-phase state,
/// including the lane slabs and the per-range merge structures.
StressObservation run_stress(const Graph& g, const StressOptions& opt) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  StressObservation obs;
  obs.logs.resize(n);
  Network net(g);
  net.set_validate(opt.validate);
  net.set_threads(opt.threads);
  net.set_parallel_round_threshold(opt.threshold);
  for (int phase = 0; phase < opt.phases; ++phase) {
    const StressBehavior behavior = behavior_for(opt, phase);
    std::vector<StressProcess> procs;
    procs.reserve(n);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      procs.emplace_back(v, behavior, &obs.logs[static_cast<std::size_t>(v)]);
    obs.phase_stats.push_back(congest::run_phase(net, procs));
  }
  obs.total_rounds = net.total_rounds();
  obs.total_messages = net.total_messages();
  return obs;
}

StressObservation run_stress(const Graph& g, int threads, bool validate,
                             int phases = 3) {
  return run_stress(
      g, StressOptions{.threads = threads, .validate = validate,
                       .phases = phases});
}

void expect_identical(const StressObservation& got,
                      const StressObservation& want, int threads) {
  ASSERT_EQ(got.phase_stats.size(), want.phase_stats.size());
  for (std::size_t p = 0; p < want.phase_stats.size(); ++p) {
    EXPECT_EQ(got.phase_stats[p].rounds, want.phase_stats[p].rounds)
        << "threads=" << threads << " phase " << p;
    EXPECT_EQ(got.phase_stats[p].messages, want.phase_stats[p].messages)
        << "threads=" << threads << " phase " << p;
  }
  EXPECT_EQ(got.total_rounds, want.total_rounds) << "threads=" << threads;
  EXPECT_EQ(got.total_messages, want.total_messages) << "threads=" << threads;
  ASSERT_EQ(got.logs, want.logs) << "threads=" << threads;
}

/// The acceptance matrix: sequential observation (itself checked against
/// the historical reference engine) vs 2, 3, and 8 threads, each at three
/// fallback thresholds — 0 (every round takes the parallel promotion
/// path), 48 (rounds flip between the parallel and sequential paths
/// inside one phase, exercising the lane/fill-slab handovers), and the
/// default (tiny rounds fall back on their own).
void run_determinism_matrix(const Graph& g, bool validate) {
  const StressObservation seq = run_stress(g, /*threads=*/1, validate);

  // Anchor the sequential engine to the vector-of-vectors ground truth on
  // the first phase's workload.
  std::vector<std::vector<DeliveryRecord>> ref_logs(
      static_cast<std::size_t>(g.num_nodes()));
  const PhaseStats ref = reference_run(g, StressBehavior{0x5eed0000}, ref_logs);
  EXPECT_EQ(seq.phase_stats.front().rounds, ref.rounds);
  EXPECT_EQ(seq.phase_stats.front().messages, ref.messages);

  for (const int threads : {2, 3, 8}) {
    for (const std::int64_t threshold :
         {std::int64_t{0}, std::int64_t{48},
          Network::kDefaultParallelRoundThreshold}) {
      const StressObservation par = run_stress(
          g, StressOptions{.threads = threads, .validate = validate,
                           .threshold = threshold});
      expect_identical(par, seq, threads);
    }
  }
}

TEST(ParallelDeterminism, MatchesSequentialOnGrid) {
  run_determinism_matrix(make_grid(9, 7), /*validate=*/true);
}

TEST(ParallelDeterminism, MatchesSequentialOnErdosRenyi) {
  run_determinism_matrix(make_erdos_renyi(150, 0.06, 11), /*validate=*/true);
}

TEST(ParallelDeterminism, MatchesSequentialOnWheelHub) {
  // The hub's degree exceeds the send path's adjacency-scan cutoff, so the
  // workers also take the O(1) endpoint-lookup branch.
  run_determinism_matrix(make_wheel(40), /*validate=*/true);
}

TEST(ParallelDeterminism, MatchesSequentialWithValidationOff) {
  run_determinism_matrix(make_grid(8, 8), /*validate=*/false);
}

TEST(ParallelDeterminism, HardwareConcurrencyRequestMatchesSequential) {
  // set_threads(0) resolves to the hardware concurrency — whatever that
  // is on this machine, the observables must not change.
  const Graph g = make_erdos_renyi(120, 0.06, 7);
  Network probe(g);
  probe.set_threads(0);
  EXPECT_GE(probe.threads(), 1);
  const StressObservation seq = run_stress(g, 1, /*validate=*/true);
  const StressObservation hw = run_stress(
      g, StressOptions{.threads = 0, .threshold = 0});  // pin parallel path
  expect_identical(hw, seq, probe.threads());
}

TEST(ParallelPromotion, HeavyTrafficMatchesSequentialEverywhere) {
  // The parallel-promotion acceptance workload: dense dice on a ~deg-12
  // random graph give thousands of messages per round and multi-message
  // inboxes, so the range-partitioned merge, the per-segment sort, and
  // the parallel counting scatter all run with real work in every bucket.
  const Graph g = make_erdos_renyi(600, 0.02, 13);
  const StressOptions seq_opt{.threads = 1, .start_send_mod = 2,
                              .round_send_mod = 2, .wake_mod = 3};
  const StressObservation seq = run_stress(g, seq_opt);

  std::vector<std::vector<DeliveryRecord>> ref_logs(
      static_cast<std::size_t>(g.num_nodes()));
  const PhaseStats ref =
      reference_run(g, behavior_for(seq_opt, 0), ref_logs);
  ASSERT_EQ(seq.phase_stats.front().rounds, ref.rounds);
  ASSERT_EQ(seq.phase_stats.front().messages, ref.messages);

  for (const int threads : {2, 3, 8}) {
    for (const bool validate : {true, false}) {
      StressOptions opt = seq_opt;
      opt.threads = threads;
      opt.validate = validate;
      opt.threshold = 0;
      expect_identical(run_stress(g, opt), seq, threads);
    }
  }
}

TEST(ParallelPromotion, ThresholdCrossingsInsideOnePhaseMatchSequential) {
  // Thresholds chosen around the stress workload's per-round volume, so
  // one phase repeatedly hands the pending sends between the worker lanes
  // and the sequential fill slab in both directions.
  const Graph g = make_erdos_renyi(200, 0.04, 9);
  const StressObservation seq = run_stress(g, 1, /*validate=*/true);
  for (const std::int64_t threshold : {16, 64, 160, 400, 1000}) {
    const StressObservation par = run_stress(
        g, StressOptions{.threads = 3, .threshold = threshold});
    expect_identical(par, seq, 3);
  }
}

TEST(ParallelDeterminism, ThreadCountSwitchesMidLifeKeepObservables) {
  // One Network, one phase per (thread count, fallback threshold) pair,
  // in an order that grows and shrinks the pool and flips promotion
  // between the parallel and fallback paths. Every phase must reproduce
  // the stats and logs of the corresponding all-sequential run.
  const Graph g = make_grid(10, 6);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const StressObservation seq = run_stress(g, 1, /*validate=*/true, 4);

  StressObservation got;
  got.logs.resize(n);
  Network net(g);
  const int schedule[] = {1, 4, 2, 8};
  const std::int64_t thresholds[] = {
      Network::kDefaultParallelRoundThreshold, 0, 48, 0};
  for (int phase = 0; phase < 4; ++phase) {
    net.set_threads(schedule[phase]);
    net.set_parallel_round_threshold(thresholds[phase]);
    const StressBehavior behavior{0x5eed0000 + static_cast<std::uint64_t>(phase)};
    std::vector<StressProcess> procs;
    procs.reserve(n);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      procs.emplace_back(v, behavior, &got.logs[static_cast<std::size_t>(v)]);
    got.phase_stats.push_back(congest::run_phase(net, procs));
  }
  got.total_rounds = net.total_rounds();
  got.total_messages = net.total_messages();
  expect_identical(got, seq, /*threads=*/-1);
}

// ---------------------------------------------------------------------------
// CONGEST faithfulness checks in parallel mode: the same violations that
// the sequential engine diagnoses must be diagnosed at every thread count
// (the double-send check runs in the deterministic lane merge; the
// incidence checks run inside the workers).

class DoubleSendProcess final : public Process {
 public:
  explicit DoubleSendProcess(NodeId id) : id_(id) {}
  void on_start(Context& ctx) override {
    if (id_ != 0) return;
    ctx.send(ctx.neighbors().front().edge, Message(1));
    ctx.send(ctx.neighbors().front().edge, Message(2));
  }
  void on_round(Context&, std::span<const Incoming>) override {}

 private:
  NodeId id_;
};

class ForeignEdgeProcess final : public Process {
 public:
  explicit ForeignEdgeProcess(NodeId id) : id_(id) {}
  void on_start(Context& ctx) override {
    if (id_ == 0) ctx.send(1, Message(1));  // edge 1 connects nodes 1-2
  }
  void on_round(Context&, std::span<const Incoming>) override {}

 private:
  NodeId id_;
};

TEST(ParallelValidation, DoubleSendThrowsAtEveryThreadCount) {
  const Graph g = make_path(4);
  for (const int threads : {2, 3, 8}) {
    Network net(g);
    net.set_threads(threads);
    net.set_parallel_round_threshold(0);  // pin the parallel merge path
    std::vector<DoubleSendProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
    EXPECT_THROW(congest::run_phase(net, procs), CheckFailure)
        << "threads=" << threads;
  }
}

TEST(ParallelValidation, NonIncidentSendThrowsAtEveryThreadCount) {
  const Graph g = make_path(3);
  for (const int threads : {2, 8}) {
    Network net(g);
    net.set_threads(threads);
    net.set_parallel_round_threshold(0);  // incidence checks in the workers
    std::vector<ForeignEdgeProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
    EXPECT_THROW(congest::run_phase(net, procs), CheckFailure)
        << "threads=" << threads;
  }
}

TEST(ParallelValidation, ValidationOffDeliversViolationLikeSequential) {
  // With validation off the parallel engine, like the sequential one,
  // skips the checks entirely and delivers both messages.
  const Graph g = make_path(2);
  Network net(g);
  net.set_validate(false);
  net.set_threads(3);
  net.set_parallel_round_threshold(0);
  std::vector<DoubleSendProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  const PhaseStats stats = congest::run_phase(net, procs);
  EXPECT_EQ(stats.messages, 2);
}

TEST(ParallelValidation, RecoversAfterAbortedParallelPhase) {
  // An aborted parallel phase leaves messages in the worker lanes; the
  // next run on the same Network must start clean — at any thread count.
  const Graph g = make_path(4);
  Network net(g);
  net.set_threads(3);
  net.set_parallel_round_threshold(0);
  {
    std::vector<DoubleSendProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
    EXPECT_THROW(congest::run_phase(net, procs), CheckFailure);
  }
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<DeliveryRecord>> logs(n);
  const StressBehavior behavior{0x5eed0000};
  std::vector<StressProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    procs.emplace_back(v, behavior, &logs[static_cast<std::size_t>(v)]);
  const PhaseStats got = congest::run_phase(net, procs);

  std::vector<std::vector<DeliveryRecord>> want_logs(n);
  const PhaseStats want = reference_run(g, behavior, want_logs);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(logs, want_logs);
}

// ---------------------------------------------------------------------------
// Phase-state guards: knobs that resize or re-route live round state must
// be unusable from inside a running phase, and a diagnosed attempt must
// not wedge the network.

class MidPhaseSetThreadsProcess final : public Process {
 public:
  MidPhaseSetThreadsProcess(NodeId id, Network* net) : id_(id), net_(net) {}
  void on_start(Context& ctx) override {
    if (id_ == 0) ctx.send(ctx.neighbors().front().edge, Message(1));
  }
  void on_round(Context&, std::span<const Incoming>) override {
    net_->set_threads(2);  // documented misuse: must be diagnosed
  }

 private:
  NodeId id_;
  Network* net_;
};

TEST(NetworkGuards, SetThreadsInsideRunningPhaseThrows) {
  const Graph g = make_path(4);
  for (const int threads : {1, 3}) {
    Network net(g);
    net.set_threads(threads);
    net.set_parallel_round_threshold(0);
    std::vector<MidPhaseSetThreadsProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v, &net);
    try {
      congest::run_phase(net, procs);
      FAIL() << "set_threads inside a phase must throw (threads=" << threads
             << ")";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("set_threads"), std::string::npos);
    }
    // The guard flag must clear on the aborted phase, so the knob works
    // again between phases and the network is still usable.
    net.set_threads(2);
    std::vector<std::vector<DeliveryRecord>> logs(
        static_cast<std::size_t>(g.num_nodes()));
    const StressBehavior behavior{0x5eed0000};
    std::vector<StressProcess> stress;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      stress.emplace_back(v, behavior, &logs[static_cast<std::size_t>(v)]);
    const PhaseStats got = congest::run_phase(net, stress);
    std::vector<std::vector<DeliveryRecord>> want_logs(
        static_cast<std::size_t>(g.num_nodes()));
    const PhaseStats want = reference_run(g, behavior, want_logs);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(logs, want_logs);
  }
}

class MidPhaseSetThresholdProcess final : public Process {
 public:
  MidPhaseSetThresholdProcess(NodeId id, Network* net) : id_(id), net_(net) {}
  void on_start(Context& ctx) override {
    if (id_ == 0) ctx.send(ctx.neighbors().front().edge, Message(1));
  }
  void on_round(Context&, std::span<const Incoming>) override {
    net_->set_parallel_round_threshold(7);
  }

 private:
  NodeId id_;
  Network* net_;
};

TEST(NetworkGuards, SetParallelThresholdInsideRunningPhaseThrows) {
  const Graph g = make_path(3);
  Network net(g);
  std::vector<MidPhaseSetThresholdProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v, &net);
  EXPECT_THROW(congest::run_phase(net, procs), CheckFailure);
}

// ---------------------------------------------------------------------------
// Engine limits: a node's per-round inbox count saturating at 2^31 - 1
// must be diagnosed at the send that would overflow it — on the
// sequential path and in the parallel merge replay — never wrap silently.
// NetworkTestPeer primes the counter; actually sending 2^31 messages
// would need a ~100 GB slab.

class InboxOverflowProcess final : public Process {
 public:
  InboxOverflowProcess(NodeId id, Network* net) : id_(id), net_(net) {}
  void on_start(Context& ctx) override {
    if (id_ != 0) return;
    congest::NetworkTestPeer::prime_inbox_count(
        *net_, ctx.neighbors().front().node, INT32_MAX);
    ctx.send(ctx.neighbors().front().edge, Message(1));
  }
  void on_round(Context&, std::span<const Incoming>) override {}

 private:
  NodeId id_;
  Network* net_;
};

TEST(NetworkLimits, PerNodeInboxOverflowDiagnosedSequential) {
  const Graph g = make_path(3);
  Network net(g);
  std::vector<InboxOverflowProcess> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v, &net);
  try {
    congest::run_phase(net, procs);
    FAIL() << "inbox overflow must be diagnosed";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("engine limit"), std::string::npos);
  }
}

TEST(NetworkLimits, PerNodeInboxOverflowDiagnosedInParallelMerge) {
  const Graph g = make_path(3);
  for (const int threads : {2, 8}) {
    Network net(g);
    net.set_threads(threads);
    net.set_parallel_round_threshold(0);  // count replay runs in the merge
    std::vector<InboxOverflowProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v, &net);
    try {
      congest::run_phase(net, procs);
      FAIL() << "inbox overflow must be diagnosed (threads=" << threads
             << ")";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("engine limit"), std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// 31-bit epoch-stamp wrap: stamps written at small tick32 values in an
// early phase must never alias post-wrap ticks, which count up from small
// values again. advance_tick's O(n) refill on the wrap is what prevents
// it; these runs cross the wrap mid-workload and must reproduce an
// untouched-tick run bit for bit.

TEST(NetworkTickWrap, ObservablesSurviveStampWrapMidRun) {
  const Graph g = make_erdos_renyi(90, 0.07, 5);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const StressObservation want = run_stress(g, 1, /*validate=*/true);

  for (const int threads : {1, 3}) {
    StressObservation got;
    got.logs.resize(n);
    Network net(g);
    net.set_threads(threads);
    if (threads > 1) net.set_parallel_round_threshold(0);
    for (int phase = 0; phase < 3; ++phase) {
      if (phase == 1) {
        // Phase 0 stamped nodes at small tick32 values; restart the epoch
        // just below the wrap so phases 1-2 cross it while those stale
        // stamps are still in node_state_.
        congest::NetworkTestPeer::set_tick(net, (std::int64_t{1} << 31) - 4);
      }
      const StressBehavior behavior{0x5eed0000 +
                                    static_cast<std::uint64_t>(phase)};
      std::vector<StressProcess> procs;
      procs.reserve(n);
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        procs.emplace_back(v, behavior, &got.logs[static_cast<std::size_t>(v)]);
      got.phase_stats.push_back(congest::run_phase(net, procs));
    }
    got.total_rounds = net.total_rounds();
    got.total_messages = net.total_messages();
    // The run really crossed the wrap (the refill path executed).
    EXPECT_GT(congest::NetworkTestPeer::tick(net), std::int64_t{1} << 31)
        << "threads=" << threads;
    expect_identical(got, want, threads);
  }
}

// ---------------------------------------------------------------------------
// End-to-end pipeline invariance: the shortcut-Boruvka MST — BFS tree
// build, FindShortcut with doubling, MWOE routing, merges — on a
// multi-threaded Network must reproduce the sequential run bit for bit:
// same tree, same MST, same phase/round/message accounting.

TEST(ParallelPipeline, ShortcutMstIsThreadCountInvariant) {
  const Graph g = with_random_weights(make_grid(7, 7), 1, 1000, 3);
  const MstResult truth = kruskal_mst(g);

  testutil::Sim seq(g, 0, /*threads=*/1);
  const DistributedMst want = mst_boruvka_shortcut(seq.net, seq.tree);

  for (const int threads : {2, 3, 8}) {
    testutil::Sim sim(g, 0, threads);
    // A 7x7 grid sits far below the default fallback threshold; pinned at
    // 0, every on_start and on_round of the shortcut stack (the routing
    // plan's shared flat buffers included) runs on the worker pool.
    ASSERT_EQ(sim.net.parallel_round_threshold(), 0) << "threads=" << threads;
    EXPECT_EQ(sim.tree.parent, seq.tree.parent) << "threads=" << threads;
    EXPECT_EQ(sim.tree.depth, seq.tree.depth) << "threads=" << threads;
    const DistributedMst got = mst_boruvka_shortcut(sim.net, sim.tree);
    EXPECT_EQ(got.edges, truth.edges) << "threads=" << threads;
    EXPECT_EQ(got.edges, want.edges) << "threads=" << threads;
    EXPECT_EQ(got.total_weight, want.total_weight) << "threads=" << threads;
    EXPECT_EQ(got.phases, want.phases) << "threads=" << threads;
    EXPECT_EQ(got.rounds, want.rounds) << "threads=" << threads;
    EXPECT_EQ(sim.net.total_rounds(), seq.net.total_rounds())
        << "threads=" << threads;
    EXPECT_EQ(sim.net.total_messages(), seq.net.total_messages())
        << "threads=" << threads;
  }
}

// Part routing alone on the parallel path: leader election over an ER
// partition runs supersteps of convergecasts and broadcasts on one routing
// plan, every callback on the workers (threshold 0), and must match the
// sequential leaders, rounds and messages.
TEST(ParallelPipeline, PartLeadersAreThreadCountInvariant) {
  const Graph g = make_erdos_renyi(120, 0.05, 4);
  const Partition p = make_random_bfs_partition(g, 12, 5);

  const auto run = [&](int threads) {
    testutil::Sim sim(g, 0, threads);
    if (threads > 1) {
      EXPECT_EQ(sim.net.parallel_round_threshold(), 0);
    }
    Shortcut s = greedy_blocked_shortcut(g, sim.tree, p, 3);
    const std::int32_t b = block_parameter(g, p, s);
    const ShortcutState state =
        compute_shortcut_state(sim.net, sim.tree, p, std::move(s));
    const NeighborParts neighbor_parts = exchange_neighbor_parts(sim.net, p);
    auto leaders =
        elect_part_leaders(sim.net, sim.tree, p, state, neighbor_parts, b);
    return std::make_tuple(std::move(leaders), sim.net.total_rounds(),
                           sim.net.total_messages());
  };

  const auto want = run(1);
  const auto groups = p.members();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const PartId j = p.part(v);
    if (j == kNoPart) continue;
    EXPECT_EQ(std::get<0>(want)[static_cast<std::size_t>(v)],
              groups[static_cast<std::size_t>(j)].front());
  }
  for (const int threads : {2, 3, 8})
    EXPECT_EQ(run(threads), want) << "threads=" << threads;
}

// ---------------------------------------------------------------------------
// Superstep runner against the engine: a SuperstepRunner makes every hook
// call on the host and runs only the convergecast's schedule, with
// placeholder words, on the engine. Against an engine-only superstep (the
// exchange, the convergecast and the broadcast each an engine phase), every
// superstep, the first included, must leave the same per-node state, add
// the same rounds and messages, and make the same hook calls.

/// Per-node protocol state and hook-call logs of one side of the
/// comparison. Hooks for node v write only index v, so the logs stay
/// race-free when the engine runs callbacks on worker threads.
struct SuperstepWorld {
  /// One hook call: {kind, and up to three arguments}.
  using Call = std::array<std::uint64_t, 4>;
  enum Kind : std::uint64_t { kContribution, kCrossMessage, kOnCross };

  std::vector<std::uint64_t> value;
  std::vector<std::uint64_t> aux;
  /// Per node, in call order: contribution, cross_message and on_cross.
  /// The engine and the runner call these in the same order at a node.
  std::vector<std::vector<Call>> calls;
  /// Per node: on_aggregate as {part, aggregate}. A node's calls for
  /// different parts may come in any order, so these compare sorted.
  std::vector<std::vector<Call>> aggregates;
  std::atomic<std::int64_t> combines{0};

  explicit SuperstepWorld(NodeId n)
      : value(static_cast<std::size_t>(n)),
        aux(static_cast<std::size_t>(n), 0),
        calls(static_cast<std::size_t>(n)),
        aggregates(static_cast<std::size_t>(n)) {
    for (std::size_t v = 0; v < value.size(); ++v)
      value[v] = (v * 2654435761u) % 1009;
  }

  void log(Kind kind, NodeId v, std::uint64_t a, std::uint64_t b,
           std::uint64_t c) {
    calls[static_cast<std::size_t>(v)].push_back(Call{kind, a, b, c});
  }
  void log_aggregate(NodeId v, std::uint64_t j, std::uint64_t agg) {
    aggregates[static_cast<std::size_t>(v)].push_back(Call{0, j, agg, 0});
  }

  /// This superstep's logs (aggregates sorted per node); clears them.
  std::pair<std::vector<std::vector<Call>>, std::vector<std::vector<Call>>>
  take_calls() {
    for (auto& list : aggregates) std::sort(list.begin(), list.end());
    std::pair result{calls, aggregates};
    for (auto& list : calls) list.clear();
    for (auto& list : aggregates) list.clear();
    return result;
  }
};

enum class HookSet { kMinFlood, kSaturatingSum, kMaxVerdict, kNoExchange };

/// The six superstep hooks as std::function members; `cross_message` and
/// `on_cross` are null for a superstep without the exchange.
struct LoggedHooks {
  std::function<std::uint64_t(NodeId, PartId)> contribution;
  std::function<std::uint64_t(std::uint64_t, std::uint64_t)> combine;
  std::uint64_t identity = 0;
  std::function<void(NodeId, PartId, std::uint64_t)> on_aggregate;
  std::function<std::optional<std::uint64_t>(NodeId, NodeId, EdgeId)>
      cross_message;
  std::function<void(NodeId, NodeId, EdgeId, std::uint64_t)> on_cross;
};

/// Hooks over `w` whose per-node updates commute across parts (the
/// superstep contract); every call except `combine` is logged, and
/// `combine` is counted.
LoggedHooks make_logged_hooks(HookSet set, SuperstepWorld& w,
                              const Partition& p) {
  static constexpr std::uint64_t kMax = ~std::uint64_t{0};
  static constexpr std::uint64_t kCap = std::uint64_t{1} << 62;
  const auto u = [](NodeId v) { return static_cast<std::size_t>(v); };
  const auto uj = [](PartId j) { return static_cast<std::uint64_t>(j); };
  const auto un = [](NodeId v) { return static_cast<std::uint64_t>(v); };
  LoggedHooks h;
  std::function<std::uint64_t(NodeId, PartId)> contribution;
  std::function<std::uint64_t(std::uint64_t, std::uint64_t)> combine;
  std::function<void(NodeId, PartId, std::uint64_t)> on_aggregate;
  std::function<std::optional<std::uint64_t>(NodeId, NodeId, EdgeId)> cross;
  std::function<void(NodeId, NodeId, EdgeId, std::uint64_t)> on_cross;
  switch (set) {
    case HookSet::kMinFlood:
      h.identity = kMax;
      combine = [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); };
      contribution = [&w, &p, u](NodeId v, PartId j) {
        return p.part(v) == j ? w.value[u(v)] : kMax;
      };
      on_aggregate = [&w, &p, u](NodeId v, PartId j, std::uint64_t agg) {
        if (p.part(v) == j) w.value[u(v)] = std::min(w.value[u(v)], agg);
      };
      cross = [&w, u](NodeId v, NodeId, EdgeId) {
        return std::optional<std::uint64_t>(w.value[u(v)]);
      };
      on_cross = [&w, u](NodeId v, NodeId, EdgeId, std::uint64_t x) {
        w.value[u(v)] = std::min(w.value[u(v)], x);
      };
      break;
    case HookSet::kSaturatingSum:
      // Relays contribute too, and a third of the cross edges stay silent.
      h.identity = 0;
      combine = [](std::uint64_t a, std::uint64_t b) {
        return std::min(a + b, kCap);
      };
      contribution = [&w, &p, u, uj, un](NodeId v, PartId j) {
        const std::uint64_t own = p.part(v) == j ? w.value[u(v)] % 97 : 0;
        return own + 1 + (un(v) * 7 + uj(j)) % 5;
      };
      on_aggregate = [&w, u, uj](NodeId v, PartId j, std::uint64_t agg) {
        w.aux[u(v)] += agg * (uj(j) + 1);
      };
      cross = [&w, u, un](NodeId v, NodeId to,
                          EdgeId e) -> std::optional<std::uint64_t> {
        if ((un(v) + un(to) + static_cast<std::uint64_t>(e)) % 3 == 0)
          return std::nullopt;
        return w.value[u(v)] % 1000 + un(to);
      };
      on_cross = [&w, u, un](NodeId v, NodeId from, EdgeId, std::uint64_t x) {
        w.value[u(v)] += x ^ un(from);
      };
      break;
    case HookSet::kMaxVerdict:
      h.identity = 0;
      combine = [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); };
      contribution = [&w, &p, u](NodeId v, PartId j) -> std::uint64_t {
        return p.part(v) == j ? w.value[u(v)] % 3 : 0;
      };
      on_aggregate = [&w, &p, u](NodeId v, PartId j, std::uint64_t agg) {
        if (p.part(v) == j) w.aux[u(v)] = std::max(w.aux[u(v)], agg);
      };
      cross = [&w, u](NodeId v, NodeId,
                      EdgeId) -> std::optional<std::uint64_t> {
        if (w.aux[u(v)] == 0) return std::nullopt;
        return w.aux[u(v)];
      };
      on_cross = [&w, u](NodeId v, NodeId, EdgeId, std::uint64_t x) {
        w.aux[u(v)] = std::max(w.aux[u(v)], x);
      };
      break;
    case HookSet::kNoExchange:
      h.identity = 0;
      combine = [](std::uint64_t a, std::uint64_t b) { return a ^ b; };
      contribution = [&w, u, uj](NodeId v, PartId j) {
        return w.value[u(v)] * 31 + uj(j);
      };
      on_aggregate = [&w, u, uj](NodeId v, PartId j, std::uint64_t agg) {
        w.aux[u(v)] ^= agg + uj(j);
      };
      break;
  }
  h.combine = [&w, combine](std::uint64_t a, std::uint64_t b) {
    w.combines.fetch_add(1, std::memory_order_relaxed);
    return combine(a, b);
  };
  h.contribution = [&w, contribution, uj](NodeId v, PartId j) {
    const std::uint64_t word = contribution(v, j);
    w.log(SuperstepWorld::kContribution, v, uj(j), word, 0);
    return word;
  };
  h.on_aggregate = [&w, on_aggregate, uj](NodeId v, PartId j,
                                          std::uint64_t agg) {
    w.log_aggregate(v, uj(j), agg);
    on_aggregate(v, j, agg);
  };
  if (cross) {
    h.cross_message = [&w, cross, un](NodeId v, NodeId to, EdgeId e) {
      const auto word = cross(v, to, e);
      w.log(SuperstepWorld::kCrossMessage, v, un(to),
            static_cast<std::uint64_t>(e),
            word.has_value() ? *word : ~std::uint64_t{0});
      return word;
    };
    h.on_cross = [&w, on_cross, un](NodeId v, NodeId from, EdgeId e,
                                    std::uint64_t x) {
      w.log(SuperstepWorld::kOnCross, v, un(from),
            static_cast<std::uint64_t>(e), x);
      on_cross(v, from, e, x);
    };
  }
  return h;
}

/// The reference exchange: one round in which every part member sends
/// `cross_message`'s word to each same-part neighbor, in adjacency order.
class ReferenceExchangeProcess final : public Process {
 public:
  ReferenceExchangeProcess(NodeId id, const Partition& partition,
                           const NeighborParts& neighbor_parts,
                           const LoggedHooks& hooks)
      : id_(id),
        partition_(&partition),
        neighbor_parts_(&neighbor_parts),
        hooks_(&hooks) {}

  void on_start(Context& ctx) override {
    const PartId j = partition_->part(id_);
    if (j == kNoPart) return;
    const auto nbs = ctx.neighbors();
    const auto parts = neighbor_parts_->of(id_);
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (parts[k] != j) continue;
      const auto word = hooks_->cross_message(id_, nbs[k].node, nbs[k].edge);
      if (word.has_value()) ctx.send(nbs[k].edge, Message(0, *word));
    }
  }

  void on_round(Context&, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox)
      hooks_->on_cross(id_, in.from, in.edge, in.msg.words[0]);
  }

 private:
  NodeId id_;
  const Partition* partition_;
  const NeighborParts* neighbor_parts_;
  const LoggedHooks* hooks_;
};

/// The reference superstep, every step an engine phase: the exchange (if
/// the hooks have one), the convergecast and the broadcast on the plan, and
/// then the singleton components' local aggregates.
void engine_superstep(Network& net, const SpanningTree& tree,
                      const Partition& p, const ShortcutState& state,
                      const NeighborParts& neighbor_parts,
                      const LoggedHooks& h) {
  if (h.cross_message) {
    std::vector<ReferenceExchangeProcess> procs;
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      procs.emplace_back(v, p, neighbor_parts, h);
    congest::run_phase(net, procs);
  }
  const ComponentPlan& plan = state.plan;
  std::vector<std::uint64_t> root_agg(plan.slots.size(), h.identity);
  run_component_convergecast(net, tree, plan, h.contribution, h.combine,
                             [&](NodeId root, PartId j, std::uint64_t agg) {
                               root_agg[plan.slot_index(root, j)] = agg;
                             });
  run_component_broadcast(
      net, tree, plan,
      [&](NodeId root, PartId j) {
        return root_agg[plan.slot_index(root, j)];
      },
      [&](NodeId v, PartId j, std::uint64_t value, std::int32_t) {
        h.on_aggregate(v, j, value);
      });
  // A member is a singleton when none of its tree edges carries its part;
  // read off the shortcut itself, not the plan the runner uses.
  const auto carries = [&](EdgeId e, PartId j) {
    const auto& list =
        state.shortcut.parts_on_edge[static_cast<std::size_t>(e)];
    return std::binary_search(list.begin(), list.end(), j);
  };
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    const PartId j = p.part(v);
    if (j == kNoPart) continue;
    const EdgeId up = tree.parent_edge[i];
    if (up != kNoEdge && carries(up, j)) continue;
    if (std::any_of(tree.children_edges[i].begin(),
                    tree.children_edges[i].end(),
                    [&](EdgeId e) { return carries(e, j); }))
      continue;
    h.on_aggregate(v, j, h.contribution(v, j));
  }
}

TEST(ParallelSuperstep, ReplayMatchesEngine) {
  // The second superstep's verdicts are all still 0, so its exchange sends
  // nothing and takes no round.
  const std::vector<HookSet> steps = {
      HookSet::kMinFlood,      HookSet::kMaxVerdict, HookSet::kSaturatingSum,
      HookSet::kNoExchange,    HookSet::kMaxVerdict, HookSet::kSaturatingSum,
      HookSet::kMinFlood,      HookSet::kNoExchange};

  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(f.name) + " threads=" + std::to_string(threads));
      testutil::Sim sim(f.g, f.root, threads);
      Shortcut s = greedy_blocked_shortcut(f.g, sim.tree, f.p, 3);
      const ShortcutState state =
          compute_shortcut_state(sim.net, sim.tree, f.p, std::move(s));
      const NeighborParts neighbor_parts =
          exchange_neighbor_parts(sim.net, f.p);

      SuperstepWorld hosted(f.g.num_nodes());
      SuperstepWorld engine(f.g.num_nodes());
      SuperstepRunner runner(sim.net, sim.tree, f.p, state, neighbor_parts);
      for (std::size_t i = 0; i < steps.size(); ++i) {
        SCOPED_TRACE("superstep " + std::to_string(i));
        const auto measure = [&](auto&& body) {
          const std::int64_t r0 = sim.net.total_rounds();
          const std::int64_t m0 = sim.net.total_messages();
          body();
          return std::make_pair(sim.net.total_rounds() - r0,
                                sim.net.total_messages() - m0);
        };
        const auto got = measure([&] {
          const LoggedHooks h = make_logged_hooks(steps[i], hosted, f.p);
          if (h.cross_message) {
            runner.run(h);
          } else {
            runner.run(SuperstepHooks{h.contribution, h.combine, h.identity,
                                      h.on_aggregate});
          }
        });
        const auto want = measure([&] {
          engine_superstep(sim.net, sim.tree, f.p, state, neighbor_parts,
                           make_logged_hooks(steps[i], engine, f.p));
        });
        EXPECT_EQ(got, want);
        EXPECT_GT(want.first, 0);
        EXPECT_EQ(hosted.value, engine.value);
        EXPECT_EQ(hosted.aux, engine.aux);
        EXPECT_EQ(hosted.combines.load(), engine.combines.load());
        EXPECT_EQ(hosted.take_calls(), engine.take_calls());
      }
    }
  }
}

// The representation broadcast's stats are the plan's broadcast schedule:
// any other broadcast on the same plan, whatever words it carries, takes
// the same rounds and sends one message per slot that rides its parent
// edge. The superstep runner adds these stats instead of simulating it.
TEST(ParallelRepresentation, BroadcastStatsAreThePlansSchedule) {
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(f.name) + " threads=" + std::to_string(threads));
      testutil::Sim sim(f.g, f.root, threads);
      Shortcut s = greedy_blocked_shortcut(f.g, sim.tree, f.p, 3);
      const ShortcutState state =
          compute_shortcut_state(sim.net, sim.tree, f.p, std::move(s));
      const ComponentPlan& plan = state.plan;
      const auto parent_slots =
          std::count_if(plan.slots.begin(), plan.slots.end(),
                        [](const ComponentPlan::Slot& slot) {
                          return slot.has_parent;
                        });
      EXPECT_GT(state.broadcast.rounds, 0);
      EXPECT_EQ(state.broadcast.messages, parent_slots);

      const auto ignore = [](NodeId, PartId, std::uint64_t, std::int32_t) {};
      const PhaseStats zeros = run_component_broadcast(
          sim.net, sim.tree, plan, [](NodeId, PartId) { return 0; }, ignore);
      const PhaseStats mixed = run_component_broadcast(
          sim.net, sim.tree, plan,
          [](NodeId root, PartId j) {
            return static_cast<std::uint64_t>(root) * 7919 +
                   static_cast<std::uint64_t>(j);
          },
          ignore);
      EXPECT_EQ(std::make_pair(zeros.rounds, zeros.messages),
                std::make_pair(state.broadcast.rounds,
                               state.broadcast.messages));
      EXPECT_EQ(std::make_pair(mixed.rounds, mixed.messages),
                std::make_pair(state.broadcast.rounds,
                               state.broadcast.messages));
    }
  }
}

class AddReplayedInsidePhaseProcess final : public Process {
 public:
  explicit AddReplayedInsidePhaseProcess(Network* net) : net_(net) {}
  void on_start(Context&) override { net_->add_replayed(PhaseStats{1, 1}); }
  void on_round(Context&, std::span<const Incoming>) override {}

 private:
  Network* net_;
};

TEST(ParallelSuperstep, AddReplayedGuards) {
  const Graph g = make_path(3);
  Network net(g);
  net.add_replayed(PhaseStats{3, 5});
  EXPECT_EQ(net.total_rounds(), 3);
  EXPECT_EQ(net.total_messages(), 5);

  EXPECT_THROW(net.add_replayed(PhaseStats{-1, 0}), CheckFailure);
  EXPECT_THROW(net.add_replayed(PhaseStats{0, -1}), CheckFailure);
  std::vector<AddReplayedInsidePhaseProcess> procs(
      static_cast<std::size_t>(g.num_nodes()),
      AddReplayedInsidePhaseProcess(&net));
  EXPECT_THROW(congest::run_phase(net, procs), CheckFailure);
  EXPECT_EQ(net.total_rounds(), 3);
  EXPECT_EQ(net.total_messages(), 5);
}

}  // namespace
}  // namespace lcs
