/// \file core_fast.h
/// The randomized core subroutine (Algorithm 2 / Lemma 5), O(D log n + c)
/// rounds.
///
/// CoreSlow's bottleneck is streaming up to 2c part ids over every tree
/// edge. CoreFast estimates the contention instead: a shared-randomness
/// seed is flooded over the tree (one word, O(D) rounds); every part then
/// becomes *active* with probability p = γ·log₂(n)/(2c), consistently at
/// all of its nodes, by hashing (seed, part id). Only active ids stream
/// bottom-up, and an edge is declared unusable when ≥ 4c·p = 2γ·log₂(n)
/// active ids want it — so the streaming phase costs O(D log n) rounds.
/// Finally *all* ids are routed up the tree until their first unusable edge
/// (a Lemma 2 tree-routing instance, O(D + c) rounds w.h.p.).
///
/// Round accounting: all three phases are counted on the host and charged
/// through `Network::add_replayed`; none runs on the engine. The seed flood
/// is `broadcast_word_from_root` (tree_ops.h). The sampled stream is
/// CoreSlow's (`stream_ids_up`, core_slow.h) over the active ids, with an
/// edge unusable once `threshold` distinct ids want it. In the routing
/// phase every node forwards each distinct id it learns over a usable
/// parent edge: its own id is released at the start, any other in the
/// round it first arrives, and each round the smallest released id departs
/// (`depart_by_key`, tree_routing.h). Each phase takes latest departure + 2
/// rounds, one message per id or end marker sent. `tests/engine_reference.h`
/// keeps the engine protocols these passes replace, and
/// `tests/core_test.cpp` checks one against the other.
///
/// Guarantees (Lemma 5): congestion ≤ 8c w.h.p.; at least half the parts
/// get ≤ 3b block components whenever a (c, b) shortcut exists.
#pragma once

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/core_slow.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct CoreFastParams {
  std::int32_t c = 1;        ///< assumed congestion of the existential shortcut
  double gamma = 4.0;        ///< sampling constant γ (paper: "sufficiently large")
  std::uint64_t seed = 1;    ///< shared-randomness seed (flooded from the root)
};

/// Run CoreFast. Interface mirrors core_slow(); rounds accounted in `net`
/// include the seed flood, the sampled streaming phase, and the full
/// routing phase.
CoreResult core_fast(congest::Network& net, const SpanningTree& tree,
                     const congest::PerNode<PartId>& active_part_of,
                     const CoreFastParams& params);

/// The sampling probability CoreFast uses for a given (n, c, γ), clamped to
/// (0, 1]. Exposed for tests and the sampling ablation bench.
double core_fast_sampling_probability(NodeId n, std::int32_t c, double gamma);

}  // namespace lcs
