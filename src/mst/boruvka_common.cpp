#include "mst/boruvka_common.h"

#include <algorithm>
#include <cmath>

#include "apps/aggregate.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "mst/mwoe.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_ops.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs {

std::int32_t boruvka_phase_cap(NodeId n) {
  return 8 * util::checked_trunc<std::int32_t>(
                 std::log2(std::max<double>(2.0, n))) +
         20;
}

StarMergeStep star_merge_step(const Graph& g, const Partition& fragments,
                              const NeighborParts& neighbor_parts,
                              const congest::PerNode<std::uint64_t>& mwoe,
                              std::uint64_t seed, std::int32_t phase,
                              std::vector<bool>& mst_edge) {
  StarMergeStep step;
  step.proposals.assign(static_cast<std::size_t>(g.num_nodes()),
                        kNoCandidate);
  step.has_outgoing.assign(static_cast<std::size_t>(g.num_nodes()), false);

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const PartId mine = fragments.part(v);
    if (mine == kNoPart) continue;
    const std::uint64_t packed = mwoe[static_cast<std::size_t>(v)];
    if (packed == kNoCandidate) continue;
    step.has_outgoing[static_cast<std::size_t>(v)] = true;

    // Am I the owner — the in-fragment endpoint of the fragment's MWOE?
    const EdgeId e = candidate_edge(packed);
    const auto& ed = g.edge(e);
    if (ed.u != v && ed.v != v) continue;
    const NodeId other = ed.u == v ? ed.v : ed.u;
    const PartId target = fragments.part(other);
    LCS_CHECK(target != mine, "fragment MWOE must leave the fragment");

    // The MWOE always joins the MST (cut property).
    mst_edge[static_cast<std::size_t>(e)] = true;

    // Tail -> head merge proposal.
    if (!is_head(seed, mine, phase) && is_head(seed, target, phase)) {
      step.proposals[static_cast<std::size_t>(v)] =
          static_cast<std::uint64_t>(target);
    }
  }
  (void)neighbor_parts;
  return step;
}

std::int64_t apply_merges(Partition& fragments,
                          const congest::PerNode<std::uint64_t>& delivered) {
  std::int64_t changed = 0;
  for (std::size_t v = 0; v < fragments.part_of.size(); ++v) {
    if (fragments.part_of[v] == kNoPart) continue;
    if (delivered[v] == kNoCandidate) continue;
    const auto head = util::checked_cast<PartId>(delivered[v]);
    if (fragments.part_of[v] != head) {
      fragments.part_of[v] = head;
      ++changed;
    }
  }
  return changed;
}

DistributedMst finish_mst(const Graph& g, const std::vector<bool>& mst_edge,
                          std::int32_t phases, std::int64_t rounds) {
  DistributedMst result;
  result.phases = phases;
  result.rounds = rounds;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (mst_edge[static_cast<std::size_t>(e)]) {
      result.edges.push_back(e);
      result.total_weight += g.edge(e).w;
    }
  }
  return result;
}

ShortcutBoruvkaRun shortcut_boruvka(congest::Network& net,
                                    const SpanningTree& tree,
                                    const CandidateRule& candidates,
                                    std::uint64_t seed, std::uint64_t salt,
                                    FindShortcutParams first_params) {
  const Graph& g = net.graph();
  const std::int64_t rounds_before = net.total_rounds();
  ShortcutBoruvkaRun run;
  run.fragments = make_singleton_partition(g.num_nodes());
  run.mst_edge.assign(static_cast<std::size_t>(g.num_edges()), false);
  FindShortcutParams params = first_params;

  const std::int32_t max_phases = boruvka_phase_cap(g.num_nodes());
  for (std::int32_t phase = 0;; ++phase) {
    LCS_CHECK(phase < max_phases, "Boruvka did not converge (bug)");

    // (1) Shortcut for the current fragments, warm-started at the last
    //     phase's (c, b), then the fragment-id exchange.
    params.seed = hash64(seed, salt, phase);
    PartAggregator agg(net, tree, run.fragments, params);
    params.c = agg.construction_stats().used_c;
    params.b = agg.construction_stats().used_b;

    // (2) Fragment MWOE via Theorem-2 min-flood on the shortcut.
    const auto mwoe =
        agg.min(candidates(run.fragments, agg.neighbor_parts()));

    // (3) Star merges: mark MST edges, propose, broadcast, apply. The
    //     aggregator refers to the fragments, so they change only after its
    //     last use.
    const StarMergeStep step =
        star_merge_step(g, run.fragments, agg.neighbor_parts(), mwoe, seed,
                        phase, run.mst_edge);
    const auto delivered = agg.broadcast(step.proposals);
    apply_merges(run.fragments, delivered);

    // (4) Termination: does any fragment still have an outgoing edge?
    if (!global_or(net, tree, step.has_outgoing)) {
      run.phases = phase + 1;
      break;
    }
  }
  run.rounds = net.total_rounds() - rounds_before;
  return run;
}

}  // namespace lcs
