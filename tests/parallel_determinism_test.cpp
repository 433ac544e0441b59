/// \file parallel_determinism_test.cpp
/// The engine runs in parallel only as whole, independent Networks:
/// lcs_serve's batch dispatch (serve/server.h) hands each request to a
/// `WorkerPool` worker, and every request builds its own Network, possibly
/// over a Graph the other workers read too. So a Network must keep no state
/// outside itself. Here every workload runs on pools of several sizes, each
/// worker on its own Network over one shared const Graph, and every
/// worker's run must match the same run on the calling thread bit for bit:
/// `PhaseStats`, per-node delivery logs, accounting totals, validation
/// diagnostics, the engine-limit diagnosis, and end to end the BFS tree,
/// part leaders and shortcut MST. Under TSan these are also the race checks
/// for a Network used off the caller's thread.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

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
#include "stress_util.h"
#include "test_util.h"
#include "util/check.h"
#include "util/worker_pool.h"

namespace lcs {
namespace {

using congest::Network;
using congest::PhaseStats;
using testutil::DeliveryRecord;
using testutil::DoubleSendProcess;
using testutil::ForeignEdgeProcess;
using testutil::InboxOverflowProcess;
using testutil::reference_run;
using testutil::StressBehavior;
using testutil::StressProcess;

/// Pool sizes every concurrent workload runs at.
constexpr int kPoolSizes[] = {2, 3, 8};

/// Everything one stress run observes: per-phase stats, per-node delivery
/// logs (one vector per node, in delivery order), and the accounting
/// totals after all phases.
struct StressObservation {
  std::vector<PhaseStats> phase_stats;
  std::vector<std::vector<DeliveryRecord>> logs;
  std::int64_t total_rounds = 0;
  std::int64_t total_messages = 0;
};

StressBehavior behavior_for(int phase) {
  return StressBehavior{0x5eed0000 + static_cast<std::uint64_t>(phase)};
}

/// Run one stress phase on `net`, appending its stats and deliveries.
void stress_phase(Network& net, int phase, StressObservation& obs) {
  const Graph& g = net.graph();
  obs.logs.resize(static_cast<std::size_t>(g.num_nodes()));
  std::vector<StressProcess> procs;
  procs.reserve(obs.logs.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    procs.emplace_back(v, behavior_for(phase),
                       &obs.logs[static_cast<std::size_t>(v)]);
  obs.phase_stats.push_back(congest::run_phase(net, procs));
  obs.total_rounds = net.total_rounds();
  obs.total_messages = net.total_messages();
}

/// `phases` stress phases on one fresh Network: later phases exercise the
/// epoch-stamped reuse of all per-phase state.
StressObservation run_stress(const Graph& g, bool validate, int phases = 3) {
  StressObservation obs;
  Network net(g);
  net.set_validate(validate);
  for (int phase = 0; phase < phases; ++phase) stress_phase(net, phase, obs);
  return obs;
}

void expect_identical(const StressObservation& got,
                      const StressObservation& want, int workers, int w) {
  ASSERT_EQ(got.phase_stats.size(), want.phase_stats.size());
  for (std::size_t p = 0; p < want.phase_stats.size(); ++p) {
    EXPECT_EQ(got.phase_stats[p].rounds, want.phase_stats[p].rounds)
        << "pool " << workers << " worker " << w << " phase " << p;
    EXPECT_EQ(got.phase_stats[p].messages, want.phase_stats[p].messages)
        << "pool " << workers << " worker " << w << " phase " << p;
  }
  EXPECT_EQ(got.total_rounds, want.total_rounds)
      << "pool " << workers << " worker " << w;
  EXPECT_EQ(got.total_messages, want.total_messages)
      << "pool " << workers << " worker " << w;
  ASSERT_EQ(got.logs, want.logs) << "pool " << workers << " worker " << w;
}

/// `fn(w)` on every worker of a fresh pool of `workers`, all at once; the
/// results in worker order.
template <class Fn>
auto run_on_every_worker(int workers, Fn&& fn) {
  std::vector<std::invoke_result_t<Fn&, int>> results(
      static_cast<std::size_t>(workers));
  WorkerPool pool(workers);
  pool.run([&](int w) { results[static_cast<std::size_t>(w)] = fn(w); });
  return results;
}

/// The caller's run (anchored to the reference engine on its first phase)
/// against every worker of pools of 2, 3 and 8, all running the same
/// workload on the same graph at once.
void run_determinism_matrix(const Graph& g, bool validate) {
  const StressObservation seq = run_stress(g, validate);
  std::vector<std::vector<DeliveryRecord>> ref_logs(
      static_cast<std::size_t>(g.num_nodes()));
  const PhaseStats ref = reference_run(g, behavior_for(0), ref_logs);
  EXPECT_EQ(seq.phase_stats.front().rounds, ref.rounds);
  EXPECT_EQ(seq.phase_stats.front().messages, ref.messages);

  for (const int workers : kPoolSizes) {
    const auto runs = run_on_every_worker(
        workers, [&](int) { return run_stress(g, validate); });
    for (int w = 0; w < workers; ++w)
      expect_identical(runs[static_cast<std::size_t>(w)], seq, workers, w);
  }
}

TEST(ParallelDeterminism, MatchesSequentialOnGrid) {
  run_determinism_matrix(make_grid(9, 7), /*validate=*/true);
}

TEST(ParallelDeterminism, MatchesSequentialOnErdosRenyi) {
  run_determinism_matrix(make_erdos_renyi(150, 0.06, 11), /*validate=*/true);
}

TEST(ParallelDeterminism, MatchesSequentialOnWheelHub) {
  // The hub's degree exceeds the send path's adjacency-scan cutoff, so
  // every worker also takes the O(1) endpoint-lookup branch.
  run_determinism_matrix(make_wheel(40), /*validate=*/true);
}

TEST(ParallelDeterminism, MatchesSequentialWithValidationOff) {
  run_determinism_matrix(make_grid(8, 8), /*validate=*/false);
}

TEST(ParallelDeterminism, HardwareConcurrencyRequestMatchesSequential) {
  // A request for 0 workers (lcs_serve's --parallel-requests=0) resolves
  // to the hardware concurrency; whatever that is here, every worker's
  // run must match the caller's.
  const Graph g = make_erdos_renyi(120, 0.06, 7);
  const int workers = WorkerPool::resolve_threads(0);
  ASSERT_GE(workers, 1);
  const StressObservation seq = run_stress(g, /*validate=*/true);
  const auto runs = run_on_every_worker(
      workers, [&](int) { return run_stress(g, /*validate=*/true); });
  for (int w = 0; w < workers; ++w)
    expect_identical(runs[static_cast<std::size_t>(w)], seq, workers, w);
}

TEST(ParallelDeterminism, ThreadCountSwitchesMidLifeKeepObservables) {
  // One Network moves between threads: phase p runs on the last worker of
  // a pool of schedule[p] (the caller itself for a pool of 1), beside
  // other workers' runs on the same graph, and `set_threads` — accepted,
  // selecting nothing — changes before every phase. The phases must
  // reproduce the four phases of one run on the caller.
  const Graph g = make_grid(10, 6);
  const StressObservation seq = run_stress(g, /*validate=*/true, 4);

  StressObservation got;
  Network net(g);
  const int schedule[] = {1, 4, 2, 8};
  for (int phase = 0; phase < 4; ++phase) {
    const int workers = schedule[phase];
    net.set_threads(workers);
    WorkerPool pool(workers);
    pool.run([&](int w) {
      if (w == workers - 1) {
        stress_phase(net, phase, got);
      } else {
        StressObservation beside;
        Network other(g);
        stress_phase(other, phase, beside);
      }
    });
  }
  expect_identical(got, seq, /*workers=*/-1, /*w=*/-1);
}

// ---------------------------------------------------------------------------
// CONGEST faithfulness off the caller's thread: the violations the engine
// diagnoses on the caller are diagnosed, with the same message, in every
// worker, and the pool carries a worker's diagnosis to the caller.

/// One phase of `P` (one per node, constructed from its id) on a fresh
/// Network over `g`.
template <class P>
void run_violating_phase(const Graph& g) {
  Network net(g);
  std::vector<P> procs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  congest::run_phase(net, procs);
}

/// The diagnosis `run_violating_phase<P>` gets, or "" if it completes.
template <class P>
std::string diagnosis_of(const Graph& g) {
  try {
    run_violating_phase<P>(g);
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

template <class P>
void expect_diagnosed_in_every_worker(const Graph& g) {
  const std::string want = diagnosis_of<P>(g);
  ASSERT_FALSE(want.empty());
  for (const int workers : kPoolSizes) {
    const auto got =
        run_on_every_worker(workers, [&](int) { return diagnosis_of<P>(g); });
    for (int w = 0; w < workers; ++w)
      EXPECT_EQ(got[static_cast<std::size_t>(w)], want)
          << "pool " << workers << " worker " << w;
    // Uncaught in the workers, the diagnosis reaches the caller.
    WorkerPool pool(workers);
    const auto uncaught = [&](int) { run_violating_phase<P>(g); };
    EXPECT_THROW(pool.run(uncaught), CheckFailure) << "pool " << workers;
  }
}

TEST(ParallelValidation, DoubleSendThrowsAtEveryThreadCount) {
  expect_diagnosed_in_every_worker<DoubleSendProcess>(make_path(4));
}

TEST(ParallelValidation, NonIncidentSendThrowsAtEveryThreadCount) {
  expect_diagnosed_in_every_worker<ForeignEdgeProcess>(make_path(3));
}

TEST(ParallelValidation, ValidationOffDeliversViolationLikeSequential) {
  // With validation off the checks are skipped on every thread: each
  // worker's violating phase runs to completion and delivers both
  // messages, as on the caller.
  const Graph g = make_path(2);
  const auto run = [&](int) {
    Network net(g);
    net.set_validate(false);
    std::vector<DoubleSendProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
    const PhaseStats stats = congest::run_phase(net, procs);
    return std::make_pair(stats.rounds, stats.messages);
  };
  const auto want = run(0);
  EXPECT_EQ(want.second, 2);
  for (const int workers : kPoolSizes) {
    const auto got = run_on_every_worker(workers, run);
    for (int w = 0; w < workers; ++w)
      EXPECT_EQ(got[static_cast<std::size_t>(w)], want)
          << "pool " << workers << " worker " << w;
  }
}

TEST(ParallelValidation, RecoversAfterAbortedParallelPhase) {
  // Every worker's phase dies mid-flight on its own Network, leaving
  // messages in that Network's fill slab, and the pool rethrows on the
  // caller. The next job, on the same Networks and the same pool, must
  // start clean and match the reference engine.
  const Graph g = make_path(4);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const StressBehavior behavior = behavior_for(0);
  std::vector<std::vector<DeliveryRecord>> want_logs(n);
  const PhaseStats want = reference_run(g, behavior, want_logs);

  constexpr int kWorkers = 3;
  std::vector<std::unique_ptr<Network>> nets;
  for (int w = 0; w < kWorkers; ++w) nets.push_back(std::make_unique<Network>(g));
  WorkerPool pool(kWorkers);
  const auto abort_phase = [&](int w) {
    std::vector<DoubleSendProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
    congest::run_phase(*nets[static_cast<std::size_t>(w)], procs);
  };
  EXPECT_THROW(pool.run(abort_phase), CheckFailure);

  std::vector<StressObservation> got(kWorkers);
  pool.run([&](int w) {
    const auto i = static_cast<std::size_t>(w);
    got[i].logs.resize(n);
    std::vector<StressProcess> procs;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      procs.emplace_back(v, behavior, &got[i].logs[static_cast<std::size_t>(v)]);
    got[i].phase_stats.push_back(congest::run_phase(*nets[i], procs));
  });
  for (int w = 0; w < kWorkers; ++w) {
    const StressObservation& obs = got[static_cast<std::size_t>(w)];
    EXPECT_EQ(obs.phase_stats.front().rounds, want.rounds) << "worker " << w;
    EXPECT_EQ(obs.phase_stats.front().messages, want.messages)
        << "worker " << w;
    EXPECT_EQ(obs.logs, want_logs) << "worker " << w;
  }
}

// Engine limits off the caller's thread: a per-node inbox count that would
// pass 2^31 - 1 is diagnosed at the send in each worker's own engine, and
// the pool's join, which merges the workers' outcomes, carries the
// lowest-index diagnosis to the caller.
TEST(NetworkLimits, PerNodeInboxOverflowDiagnosedInParallelMerge) {
  const Graph g = make_path(3);
  for (const int workers : {2, 8}) {
    WorkerPool pool(workers);
    try {
      pool.run([&](int) {
        Network net(g);
        std::vector<InboxOverflowProcess> procs;
        for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v, &net);
        congest::run_phase(net, procs);
      });
      FAIL() << "inbox overflow must be diagnosed (pool " << workers << ")";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("engine limit"), std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// End to end, as lcs_serve's workers run it: whole pipelines on concurrent
// Networks over one graph must reproduce the caller's run — same tree, same
// result, same round and message accounting.

TEST(ParallelPipeline, ShortcutMstIsThreadCountInvariant) {
  const Graph g = with_random_weights(make_grid(7, 7), 1, 1000, 3);
  const MstResult truth = kruskal_mst(g);

  struct MstRun {
    std::vector<NodeId> parent;
    std::vector<std::int32_t> depth;
    DistributedMst mst;
    std::int64_t total_rounds = 0;
    std::int64_t total_messages = 0;
  };
  const auto run = [&](int) {
    testutil::Sim sim(g);
    MstRun r{sim.tree.parent, sim.tree.depth,
             mst_boruvka_shortcut(sim.net, sim.tree), 0, 0};
    r.total_rounds = sim.net.total_rounds();
    r.total_messages = sim.net.total_messages();
    return r;
  };

  const MstRun want = run(0);
  EXPECT_EQ(want.mst.edges, truth.edges);
  for (const int workers : kPoolSizes) {
    const auto got = run_on_every_worker(workers, run);
    for (int w = 0; w < workers; ++w) {
      const MstRun& r = got[static_cast<std::size_t>(w)];
      const std::string at =
          "pool " + std::to_string(workers) + " worker " + std::to_string(w);
      EXPECT_EQ(r.parent, want.parent) << at;
      EXPECT_EQ(r.depth, want.depth) << at;
      EXPECT_EQ(r.mst.edges, want.mst.edges) << at;
      EXPECT_EQ(r.mst.total_weight, want.mst.total_weight) << at;
      EXPECT_EQ(r.mst.phases, want.mst.phases) << at;
      EXPECT_EQ(r.mst.rounds, want.mst.rounds) << at;
      EXPECT_EQ(r.total_rounds, want.total_rounds) << at;
      EXPECT_EQ(r.total_messages, want.total_messages) << at;
    }
  }
}

// Part routing alone: leader election over an ER partition runs supersteps
// of convergecasts and broadcasts on one routing plan per worker, and must
// match the caller's leaders, rounds and messages.
TEST(ParallelPipeline, PartLeadersAreThreadCountInvariant) {
  const Graph g = make_erdos_renyi(120, 0.05, 4);
  const Partition p = make_random_bfs_partition(g, 12, 5);

  const auto run = [&](int) {
    testutil::Sim sim(g);
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

  const auto want = run(0);
  const auto groups = p.members();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const PartId j = p.part(v);
    if (j == kNoPart) continue;
    EXPECT_EQ(std::get<0>(want)[static_cast<std::size_t>(v)],
              groups[static_cast<std::size_t>(j)].front());
  }
  for (const int workers : kPoolSizes) {
    const auto got = run_on_every_worker(workers, run);
    for (int w = 0; w < workers; ++w)
      EXPECT_EQ(got[static_cast<std::size_t>(w)], want)
          << "pool " << workers << " worker " << w;
  }
}

}  // namespace
}  // namespace lcs
