/// \file mincut.h
/// Karger-sampling O(log n)-approximate global min cut on top of
/// distributed connectivity — the "Min-Cut approximation" application the
/// paper lists for its framework (unweighted/uniform-capacity graphs).
///
/// Idea: sampling each edge with probability p keeps the graph connected
/// w.h.p. while p·λ = Ω(log n) and disconnects it w.h.p. once p·λ ≪ 1.
/// Sweeping p over powers of two and testing connectivity distributedly
/// (the shared seed makes every node agree on each sample locally) brackets
/// λ within an O(log n) factor. Each connectivity test is a components run
/// whose round cost is the shortcut-framework cost — Õ(D) on shortcut-good
/// topologies.
#pragma once

#include "congest/network.h"
#include "graph/graph.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct MincutEstimate {
  /// Estimated min cut: 2^k_star, where 1/2^k_star is the coarsest sampling
  /// rate that disconnected the graph. The graph is connected, so the sweep
  /// starts at rate 1/2 (k_star >= 1) and never tests the full graph. The
  /// true λ satisfies
  ///     estimate / O(log n) <= λ <= estimate * O(log n)   w.h.p.
  Weight estimate = 0;
  std::int32_t levels_tested = 0;
  std::int64_t rounds = 0;
};

/// Estimate the (unweighted) global min cut of `net.graph()`, which must be
/// connected and have at least two nodes.
MincutEstimate approx_mincut(congest::Network& net, const SpanningTree& tree,
                             std::uint64_t seed = 1);

}  // namespace lcs
