/// \file bench_e3_tree_routing.cpp
/// E3 — Lemma 2: convergecast/broadcast over a family of subtrees with
/// per-edge congestion c completes in O(D + c) rounds under root-depth
/// priority. Sweeps the congestion level (via the greedy threshold) at
/// fixed n and reports rounds / (D + c).
#include "bench_util.h"
#include "shortcut/existential.h"
#include "shortcut/representation.h"
#include "shortcut/tree_routing.h"

namespace {

using namespace lcs;
using lcs::bench::Rig;

void run(benchmark::State& state, NodeId side, std::int32_t threshold) {
  for (auto _ : state) {
    const Graph g = make_grid(side, side);
    const auto p = make_random_bfs_partition(g, 2 * side, 5);
    Rig rig(g);
    Shortcut s = greedy_blocked_shortcut(g, rig.tree, p, threshold);
    std::int32_t c = 1;
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      c = std::max(c, static_cast<std::int32_t>(
                          s.parts_on_edge[static_cast<std::size_t>(e)].size()));
    const ShortcutState st =
        compute_shortcut_state(rig.net, rig.tree, p, std::move(s));

    // Broadcast then convergecast on all block components in parallel, both
    // on the one plan the shortcut's state carries, counted on the host.
    const std::int64_t bcast =
        broadcast_schedule(rig.tree, st.plan).stats.rounds;
    const std::int64_t conv = convergecast_schedule(rig.tree, st.plan).rounds;

    state.counters["n"] = g.num_nodes();
    state.counters["D"] = rig.tree.height;
    state.counters["c"] = c;
    state.counters["bcast_rounds"] = static_cast<double>(bcast);
    state.counters["conv_rounds"] = static_cast<double>(conv);
    state.counters["bcast_over_D+c"] =
        static_cast<double>(bcast) / (rig.tree.height + c);
    state.counters["conv_over_D+c"] =
        static_cast<double>(conv) / (rig.tree.height + c);
  }
}

}  // namespace

int register_all = [] {
  for (const std::int32_t threshold : {1, 4, 16, 64, 1024}) {
    benchmark::RegisterBenchmark(
        ("E3/grid48/threshold-" + std::to_string(threshold)).c_str(),
        [threshold](benchmark::State& s) { run(s, 48, threshold); })
        ->Iterations(1)->Unit(benchmark::kMillisecond);
  }
  return 0;
}();

LCS_BENCH_MAIN()
