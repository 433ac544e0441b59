#include "replica.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/reference.h"
#include "mst/boruvka_common.h"
#include "mst/boruvka_shortcut.h"
#include "mst/mwoe.h"
#include "shortcut/core_fast.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/part_routing.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_ops.h"
#include "shortcut/verification.h"
#include "tree/bfs_tree.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs::bench {

namespace {

/// find_shortcut.cpp's automatic per-trial iteration cap.
std::int32_t auto_iteration_cap(PartId num_parts) {
  const double log_n = std::log2(std::max<double>(2.0, num_parts));
  return util::checked_trunc<std::int32_t>(2.0 * log_n) + 8;
}

/// find_shortcut.cpp try_find (CoreFast path).
std::optional<Shortcut> try_find(Tracer& t, congest::Network& net,
                                 const SpanningTree& tree,
                                 const Partition& partition,
                                 const FindShortcutParams& params,
                                 std::int32_t max_iterations,
                                 std::int32_t& iterations_used,
                                 FindCounters& k) {
  const NodeId n = net.num_nodes();
  Partition remaining = partition;
  Shortcut combined;
  combined.parts_on_edge.resize(
      static_cast<std::size_t>(net.graph().num_edges()));

  for (std::int32_t iter = 0; iter < max_iterations; ++iter) {
    ++iterations_used;
    std::vector<bool> active(static_cast<std::size_t>(remaining.num_parts));
    for (const PartId j : remaining.part_of)
      if (j != kNoPart) active[static_cast<std::size_t>(j)] = true;
    k.part_iterations += std::count(active.begin(), active.end(), true);

    CoreResult core = t.span("shortcut.core", &net, [&] {
      return core_fast(
          net, tree, remaining.part_of,
          CoreFastParams{params.c, params.gamma,
                         hash64(params.seed,
                                static_cast<std::uint64_t>(iterations_used))});
    });
    ShortcutState tentative = t.span("shortcut.state", &net, [&] {
      return compute_shortcut_state(net, tree, remaining,
                                    std::move(core.shortcut));
    });
    const VerificationResult verdict = t.span("shortcut.verify", &net, [&] {
      const NeighborParts neighbor_parts =
          exchange_neighbor_parts(net, remaining);
      return verify_block_parameter(net, tree, remaining, tentative,
                                    3 * params.b, neighbor_parts);
    });
    for (std::size_t j = 0; j < active.size(); ++j)
      if (active[j] && verdict.part_good[j]) ++k.parts_retired;

    for (EdgeId e = 0; e < net.graph().num_edges(); ++e) {
      const auto& tentative_list =
          tentative.shortcut.parts_on_edge[static_cast<std::size_t>(e)];
      if (tentative_list.empty()) continue;
      auto& out = combined.parts_on_edge[static_cast<std::size_t>(e)];
      std::vector<PartId> merged;
      merged.reserve(out.size() + tentative_list.size());
      std::vector<PartId> kept;
      for (const PartId j : tentative_list) {
        if (verdict.part_good[static_cast<std::size_t>(j)]) kept.push_back(j);
      }
      std::merge(out.begin(), out.end(), kept.begin(), kept.end(),
                 std::back_inserter(merged));
      out = std::move(merged);
    }
    congest::PerNode<bool> still_active(static_cast<std::size_t>(n), false);
    bool any = false;
    for (NodeId v = 0; v < n; ++v) {
      const PartId j = remaining.part(v);
      if (j == kNoPart) continue;
      if (verdict.node_good[static_cast<std::size_t>(v)]) {
        remaining.part_of[static_cast<std::size_t>(v)] = kNoPart;
      } else {
        still_active[static_cast<std::size_t>(v)] = true;
        any = true;
      }
    }

    const bool parts_remain = t.span("shortcut.termination", &net, [&] {
      return global_or(net, tree, still_active);
    });
    LCS_CHECK(parts_remain == any, "termination check disagrees");
    if (!parts_remain) return combined;
  }
  return std::nullopt;
}

/// find_shortcut.cpp find_shortcut_doubling.
FindShortcutResult find_doubling(Tracer& t, congest::Network& net,
                                 const SpanningTree& tree,
                                 const Partition& partition,
                                 FindShortcutParams params, FindCounters& k) {
  return t.span("shortcut.find", &net, [&] {
    LCS_CHECK(params.c >= 1 && params.b >= 1, "parameters must be positive");
    LCS_CHECK(params.use_fast, "the replica follows the CoreFast path only");
    ++k.calls;
    const std::int64_t rounds_before = net.total_rounds();
    const std::int32_t cap = params.max_iterations > 0
                                 ? params.max_iterations
                                 : auto_iteration_cap(partition.num_parts);
    FindShortcutStats stats;
    stats.trials = 0;
    const std::int64_t limit =
        4 * static_cast<std::int64_t>(net.num_nodes()) + 4;
    for (;;) {
      ++stats.trials;
      ++k.trials;
      std::int32_t iterations = 0;
      auto shortcut =
          try_find(t, net, tree, partition, params, cap, iterations, k);
      stats.iterations += iterations;
      k.iterations += iterations;
      if (shortcut.has_value()) {
        ++k.successful_trials;
        stats.used_c = params.c;
        stats.used_b = params.b;
        FindShortcutResult result;
        result.state = t.span("shortcut.state", &net, [&] {
          return compute_shortcut_state(net, tree, partition,
                                        *std::move(shortcut));
        });
        stats.rounds = net.total_rounds() - rounds_before;
        result.stats = stats;
        return result;
      }
      LCS_CHECK(params.c <= limit && params.b <= limit,
                "doubling failed to converge (bug: a trivial shortcut exists)");
      params.c *= 2;
      params.b *= 2;
    }
  });
}

/// boruvka_shortcut.cpp mst_boruvka_shortcut, as run_driver's run_mst calls it.
void mst_replica(Tracer& t, congest::Network& net, const SpanningTree& tree,
                 const scenario::Scenario& sc, const Instance& inst,
                 ReplicaRun& out) {
  ShortcutMstOptions options;
  options.seed = inst.seed;
  const DistributedMst mst = t.span("apps.run", &net, [&] {
    const Graph& g = net.graph();
    const NodeId n = net.num_nodes();
    const std::int64_t rounds_before = net.total_rounds();
    Partition fragments = make_singleton_partition(n);
    std::vector<bool> mst_edge(static_cast<std::size_t>(g.num_edges()), false);
    FindShortcutParams params = options.shortcut_params;
    const std::int32_t max_phases =
        8 * util::checked_trunc<std::int32_t>(
                std::log2(std::max<double>(2.0, n))) +
        20;
    std::int32_t phase = 0;
    for (;; ++phase) {
      LCS_CHECK(phase < max_phases, "Boruvka did not converge (bug)");
      const NeighborParts neighbor_parts = t.span("apps.exchange", &net, [&] {
        return exchange_neighbor_parts(net, fragments);
      });
      params.seed = hash64(options.seed, 0xC0FFEE, phase);
      const FindShortcutResult found =
          find_doubling(t, net, tree, fragments, params, out.find);
      params.c = found.stats.used_c;
      params.b = found.stats.used_b;
      const std::int32_t b_steps = 3 * found.stats.used_b;

      const auto local = local_mwoe_candidates(g, fragments, neighbor_parts);
      const auto mwoe = t.span("apps.route", &net, [&] {
        return part_min_flood(net, tree, fragments, found.state,
                              neighbor_parts, b_steps, local);
      });
      StarMergeStep step = star_merge_step(g, fragments, neighbor_parts, mwoe,
                                           options.seed, phase, mst_edge);
      const auto delivered = t.span("apps.route", &net, [&] {
        return part_broadcast(net, tree, fragments, found.state,
                              neighbor_parts, b_steps, step.proposals);
      });
      apply_merges(fragments, delivered);
      const bool outgoing = t.span("apps.termination", &net, [&] {
        return global_or(net, tree, step.has_outgoing);
      });
      if (!outgoing) break;
    }
    return finish_mst(g, mst_edge, phase + 1,
                      net.total_rounds() - rounds_before);
  });
  out.result["weight"] = mst.total_weight;
  out.result["mst_edges"] = static_cast<std::int64_t>(mst.edges.size());
  out.result["phases"] = mst.phases;

  const MstResult truth = kruskal_mst(sc.graph);
  out.oracle_ok =
      truth.total_weight == mst.total_weight && truth.edges == mst.edges;
  if (!out.oracle_ok) out.why = "MST edge set differs from kruskal_mst";
}

/// run_driver's run_aggregate: a PartAggregator, then leaders().
void aggregate_replica(Tracer& t, congest::Network& net,
                       const SpanningTree& tree, const scenario::Scenario& sc,
                       const Instance& inst, ReplicaRun& out) {
  FindShortcutParams params;
  params.seed = inst.seed;
  t.span("apps.run", &net, [&] {
    const FindShortcutResult found =
        find_doubling(t, net, tree, sc.partition, params, out.find);
    const NeighborParts neighbor_parts = t.span("apps.exchange", &net, [&] {
      return exchange_neighbor_parts(net, sc.partition);
    });
    const std::int64_t before = net.total_rounds();
    const congest::PerNode<NodeId> leaders = t.span("apps.route", &net, [&] {
      return elect_part_leaders(net, tree, sc.partition, found.state,
                                neighbor_parts, 3 * found.stats.used_b);
    });
    out.result["trials"] = found.stats.trials;
    out.result["iterations"] = found.stats.iterations;
    out.result["used_c"] = found.stats.used_c;
    out.result["used_b"] = found.stats.used_b;
    out.result["construction_rounds"] = found.stats.rounds;
    out.result["leader_election_rounds"] = net.total_rounds() - before;

    std::vector<NodeId> truth(static_cast<std::size_t>(sc.partition.num_parts),
                              kNoNode);
    for (NodeId v = 0; v < sc.graph.num_nodes(); ++v) {
      const PartId j = sc.partition.part(v);
      if (j == kNoPart) continue;
      NodeId& best = truth[static_cast<std::size_t>(j)];
      if (best == kNoNode || v < best) best = v;
    }
    out.oracle_ok = true;
    for (NodeId v = 0; v < sc.graph.num_nodes(); ++v) {
      const PartId j = sc.partition.part(v);
      if (j != kNoPart && leaders[static_cast<std::size_t>(v)] !=
                              truth[static_cast<std::size_t>(j)])
        out.oracle_ok = false;
    }
    if (!out.oracle_ok) out.why = "leaders differ from the per-part minimum id";
  });
}

}  // namespace

ReplicaRun run_replica(Tracer& t, const scenario::Scenario& sc,
                       const Instance& inst) {
  ReplicaRun out;
  std::optional<congest::Network> net;
  t.span("congest.init", nullptr, [&] {
    net.emplace(sc.graph);
    net->set_validate(false);
    net->set_threads(inst.threads);
  });
  const SpanningTree tree =
      t.span("tree.bfs", &*net, [&] { return build_bfs_tree(*net, 0); });
  const std::int64_t setup_rounds = net->total_rounds();
  const std::int64_t setup_messages = net->total_messages();
  out.result["setup_rounds"] = setup_rounds;
  out.result["setup_messages"] = setup_messages;

  if (inst.algo == "mst") {
    mst_replica(t, *net, tree, sc, inst, out);
  } else {
    LCS_CHECK(inst.algo == "aggregate",
              "no traced replica for algo '" + inst.algo + "'");
    aggregate_replica(t, *net, tree, sc, inst, out);
  }
  out.result["rounds"] = net->total_rounds() - setup_rounds;
  out.result["messages"] = net->total_messages() - setup_messages;
  return out;
}

}  // namespace lcs::bench
