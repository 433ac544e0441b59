/// \file bench_e10_network.cpp
/// E10 — raw CONGEST-engine throughput (messages per second).
///
/// Unlike E1–E9, which measure *round counts* (deterministic, one
/// iteration), this bench measures *wall time* of the simulator itself so
/// engine changes are visible in the bench trajectory. Workload: a token
/// flood over a 100k-node graph — every node forwards the token on first
/// receipt, so one phase delivers ~2m - deg(0) messages across
/// eccentricity(0) rounds, exercising the inbox plumbing, the scheduler,
/// and the CONGEST checks end to end.
///
/// Reported counters per run:
///   msgs_per_sec — delivered messages / wall second (the headline number)
///   messages     — messages per phase (deterministic; sanity/determinism)
///   rounds       — rounds per phase (deterministic; sanity/determinism)
#include <algorithm>
#include <vector>

#include "bench_util.h"

namespace {

using namespace lcs;
using congest::Context;
using congest::Incoming;
using congest::Message;
using congest::Network;
using congest::PhaseStats;
using congest::Process;

/// Floods a token from node 0: forward to all neighbors that did not just
/// send to us, once, on first receipt.
class FloodProcess final : public Process {
 public:
  explicit FloodProcess(NodeId id) : id_(id) {}

  void on_start(Context& ctx) override {
    if (id_ != 0) return;
    heard_ = true;
    for (const auto& nb : ctx.neighbors()) ctx.send(nb.edge, Message(1));
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    if (heard_ || inbox.empty()) return;
    heard_ = true;
    for (const auto& nb : ctx.neighbors()) {
      const bool from_sender =
          std::any_of(inbox.begin(), inbox.end(),
                      [&](const Incoming& in) { return in.edge == nb.edge; });
      if (!from_sender) ctx.send(nb.edge, Message(1));
    }
  }

 private:
  NodeId id_;
  bool heard_ = false;
};

void run_flood(benchmark::State& state, const Graph& g, bool validate) {
  Network net(g);
  net.set_validate(validate);
  std::int64_t phases = 0;
  PhaseStats last{};
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<FloodProcess> procs;
    procs.reserve(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
    state.ResumeTiming();
    last = congest::run_phase(net, procs);
    ++phases;
  }
  state.counters["msgs_per_sec"] = benchmark::Counter(
      static_cast<double>(last.messages) * static_cast<double>(phases),
      benchmark::Counter::kIsRate);
  state.counters["messages"] = static_cast<double>(last.messages);
  state.counters["rounds"] = static_cast<double>(last.rounds);
  state.counters["n"] = g.num_nodes();
  state.counters["m"] = g.num_edges();
}

/// Local two-hop burst from node 0: a tiny active set per phase, so phase
/// cost is dominated by per-phase fixed overhead (process start plus any
/// O(n + m) state resets an engine performs). This is the workload where
/// epoch-stamped resets shine: the slab engine's startup is O(active).
class BurstProcess final : public Process {
 public:
  explicit BurstProcess(NodeId id) : id_(id) {}

  void on_start(Context& ctx) override {
    hops_ = id_ == 0 ? 0 : -1;  // processes are reused across phases
    if (id_ != 0) return;
    for (const auto& nb : ctx.neighbors()) ctx.send(nb.edge, Message(1));
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    if (hops_ >= 0 || inbox.empty()) return;
    hops_ = static_cast<int>(inbox.front().msg.tag);
    if (hops_ >= 2) return;
    for (const auto& nb : ctx.neighbors()) {
      const bool from_sender =
          std::any_of(inbox.begin(), inbox.end(),
                      [&](const Incoming& in) { return in.edge == nb.edge; });
      if (!from_sender)
        ctx.send(nb.edge, Message(static_cast<std::uint32_t>(hops_ + 1)));
    }
  }

 private:
  NodeId id_;
  int hops_ = -1;
};

void run_burst_phases(benchmark::State& state, const Graph& g) {
  constexpr int kPhases = 50;
  Network net(g);
  net.set_validate(false);
  std::vector<BurstProcess> procs;
  procs.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) procs.emplace_back(v);
  std::int64_t phases = 0;
  for (auto _ : state) {
    for (int p = 0; p < kPhases; ++p) congest::run_phase(net, procs);
    phases += kPhases;
  }
  state.counters["phases_per_sec"] = benchmark::Counter(
      static_cast<double>(phases), benchmark::Counter::kIsRate);
  state.counters["rounds"] = static_cast<double>(net.total_rounds());
  state.counters["messages"] = static_cast<double>(net.total_messages());
}

}  // namespace

int register_all = [] {
  // 100k-node sparse random graph (avg degree ~6): the acceptance workload.
  benchmark::RegisterBenchmark("E10/flood/erdos-renyi/100000",
                               [](benchmark::State& s) {
                                 const Graph g = make_erdos_renyi(
                                     100'000, 6.0 / 100'000.0, 42);
                                 run_flood(s, g, /*validate=*/false);
                               })
      ->Unit(benchmark::kMillisecond)->UseRealTime();
  // Same workload with CONGEST validation on: the cost of the checks.
  benchmark::RegisterBenchmark("E10/flood/erdos-renyi-validate/100000",
                               [](benchmark::State& s) {
                                 const Graph g = make_erdos_renyi(
                                     100'000, 6.0 / 100'000.0, 42);
                                 run_flood(s, g, /*validate=*/true);
                               })
      ->Unit(benchmark::kMillisecond)->UseRealTime();
  // 316x316 grid (~100k nodes): high-diameter, small active set per
  // round — 630 tiny rounds, so per-round overhead weighs here.
  benchmark::RegisterBenchmark("E10/flood/grid/99856",
                               [](benchmark::State& s) {
                                 const Graph g = make_grid(316, 316);
                                 run_flood(s, g, /*validate=*/false);
                               })
      ->Unit(benchmark::kMillisecond)->UseRealTime();
  // Many near-empty phases on a 1M-node graph: measures per-phase fixed
  // overhead (the seed engine's O(n + m) resets vs O(active) startup).
  benchmark::RegisterBenchmark("E10/burst-phases/grid/1000000",
                               [](benchmark::State& s) {
                                 const Graph g = make_grid(1000, 1000);
                                 run_burst_phases(s, g);
                               })
      ->Unit(benchmark::kMillisecond)->UseRealTime();
  return 0;
}();

LCS_BENCH_MAIN()
