/// \file bench_a3_priority.cpp
/// A3 (ablation) — Lemma 2's scheduling rule. The proof prioritizes
/// contested edges by (subtree-root depth, id); this bench compares that
/// rule against part-id priority and FIFO on a congested broadcast
/// workload. Root-depth should be at least as good everywhere and
/// strictly better when deep and shallow components compete.
#include "bench_util.h"
#include "shortcut/existential.h"
#include "shortcut/representation.h"
#include "shortcut/tree_routing.h"

namespace {

using namespace lcs;
using lcs::bench::Rig;

void run(benchmark::State& state, RoutingPriority priority,
         std::int32_t threshold) {
  for (auto _ : state) {
    const NodeId side = 48;
    const Graph g = make_grid(side, side);
    const auto p = make_random_bfs_partition(g, 3 * side, 31);
    Rig rig(g);
    const Shortcut s = greedy_blocked_shortcut(g, rig.tree, p, threshold);
    std::int32_t c = 1;
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      c = std::max(c, static_cast<std::int32_t>(
                          s.parts_on_edge[static_cast<std::size_t>(e)].size()));

    // One plan serves both casts: the representation phase builds it (its
    // root depths feed the convergecast priorities) before the casts, which
    // are counted on the host.
    const ShortcutState st =
        compute_shortcut_state(rig.net, rig.tree, p, s);

    const std::int64_t bcast =
        broadcast_schedule(rig.tree, st.plan, priority).stats.rounds;
    // The convergecast is where priorities bite: many components share one
    // parent edge and the deepest-rooted ones must go first.
    const std::int64_t conv =
        convergecast_schedule(rig.tree, st.plan, priority).rounds;

    state.counters["D"] = rig.tree.height;
    state.counters["c"] = c;
    state.counters["bcast_rounds"] = static_cast<double>(bcast);
    state.counters["conv_rounds"] = static_cast<double>(conv);
    state.counters["conv_over_D+c"] =
        static_cast<double>(conv) / (rig.tree.height + c);
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
            run(s, mode.priority, threshold);
          })
          ->Iterations(1)->Unit(benchmark::kMillisecond);
    }
  }
  return 0;
}();

LCS_BENCH_MAIN()
