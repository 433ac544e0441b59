/// \file bench_a3_priority.cpp
/// A3 (ablation) — Lemma 2's scheduling rule. The proof orders the
/// components contending for an edge by (subtree-root depth, id), the
/// shallowest root first; this bench compares that rule against part-id
/// priority and FIFO on two workloads:
///
///  * grid48 — greedy shortcuts on a 48x48 grid at thresholds 8, 64 and
///    1024. The rules barely differ here: root-depth and part-id read the
///    same broadcast/convergecast rounds at every threshold (55/49, 118/74,
///    225/153), and FIFO's convergecast is one round shorter at 64 (73).
///  * contested-path — the 4-node path of
///    `TreeRouting.RootDepthPriorityShortensAContestedConvergecast`, where a
///    shallow-rooted and a deep-rooted component share the leaf edge. Only
///    root-depth lets the shallow one climb at once: its convergecast takes
///    3 rounds, part-id's and FIFO's 4.
#include "bench_util.h"
#include "shortcut/existential.h"
#include "shortcut/representation.h"
#include "shortcut/tree_routing.h"

namespace {

using namespace lcs;
using lcs::bench::Rig;

/// Both casts of shortcut `s` for partition `p` under `priority`.
void report(benchmark::State& state, Rig& rig, const Partition& p,
            const Shortcut& s, RoutingPriority priority) {
  std::int32_t c = 1;
  for (const auto& parts : s.parts_on_edge)
    c = std::max(c, static_cast<std::int32_t>(parts.size()));

  // One plan serves both casts: the representation phase builds it (its
  // root depths feed the convergecast priorities) before the casts, which
  // are counted on the host.
  const ShortcutState st = compute_shortcut_state(rig.net, rig.tree, p, s);

  const std::int64_t bcast =
      broadcast_schedule(rig.tree, st.plan, priority).stats.rounds;
  // The convergecast is where priorities can bite: components that share a
  // parent edge wait for one another, and the root-depth key sends the
  // shallowest-rooted one first.
  const std::int64_t conv =
      convergecast_schedule(rig.tree, st.plan, priority).rounds;

  state.counters["D"] = rig.tree.height;
  state.counters["c"] = c;
  state.counters["bcast_rounds"] = static_cast<double>(bcast);
  state.counters["conv_rounds"] = static_cast<double>(conv);
  state.counters["conv_over_D+c"] =
      static_cast<double>(conv) / (rig.tree.height + c);
}

void run_grid(benchmark::State& state, RoutingPriority priority,
              std::int32_t threshold) {
  for (auto _ : state) {
    const NodeId side = 48;
    const Graph g = make_grid(side, side);
    const auto p = make_random_bfs_partition(g, 3 * side, 31);
    Rig rig(g);
    const Shortcut s = greedy_blocked_shortcut(g, rig.tree, p, threshold);
    report(state, rig, p, s, priority);
  }
}

void run_contested_path(benchmark::State& state, RoutingPriority priority) {
  for (auto _ : state) {
    // 0 - 1 - 2 - 3 rooted at 0: part 1 rides every edge (root depth 0),
    // part 0 only edge 2-3 (root depth 2).
    const Graph g = make_path(4);
    Rig rig(g);
    Partition p;
    p.part_of = {kNoPart, kNoPart, 0, 1};
    p.num_parts = 2;
    Shortcut s;
    s.parts_on_edge = {{1}, {1}, {0, 1}};
    report(state, rig, p, s, priority);
  }
}

}  // namespace

int register_all = [] {
  struct Mode {
    const char* name;
    lcs::RoutingPriority priority;
  };
  for (const Mode mode :
       {Mode{"root-depth", lcs::RoutingPriority::kRootDepth},
        Mode{"part-id", lcs::RoutingPriority::kPartId},
        Mode{"fifo", lcs::RoutingPriority::kFifo}}) {
    for (const std::int32_t threshold : {8, 64, 1024}) {
      benchmark::RegisterBenchmark(
          ("A3/" + std::string(mode.name) + "/threshold=" +
           std::to_string(threshold))
              .c_str(),
          [mode, threshold](benchmark::State& s) {
            run_grid(s, mode.priority, threshold);
          })
          ->Iterations(1)->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        ("A3/" + std::string(mode.name) + "/contested-path").c_str(),
        [mode](benchmark::State& s) { run_contested_path(s, mode.priority); })
        ->Iterations(1)->Unit(benchmark::kMillisecond);
  }
  return 0;
}();

LCS_BENCH_MAIN()
