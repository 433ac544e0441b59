/// \file core_slow.h
/// The deterministic core subroutine (Algorithm 1 / Lemma 7).
///
/// Every part tries to claim all tree edges between its nodes and the root.
/// Edges are processed bottom-up: node v collects the part ids visible
/// through its children, adds its own, and — if at most `2c` distinct ids
/// want the parent edge — streams them up (one id per round); otherwise it
/// marks its parent edge *unusable* and sends nothing past it. Guarantees
/// (Lemma 7): congestion at most 2c; at least half the parts end up with at
/// most 3b block components whenever a (c, b) T-restricted shortcut exists;
/// O(D·c) rounds.
#pragma once

#include "congest/network.h"
#include "congest/process.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct CoreResult {
  Shortcut shortcut;
};

/// Run CoreSlow with congestion budget `c` (threshold 2c).
///
/// `active_part_of[v]` is the part id node v injects (kNoPart to stay
/// silent) — FindShortcut passes the not-yet-finished parts here while
/// already-satisfied parts' nodes keep relaying without claiming edges.
CoreResult core_slow(congest::Network& net, const SpanningTree& tree,
                     const congest::PerNode<PartId>& active_part_of,
                     std::int32_t c);

/// CoreSlow with an explicit unusable threshold instead of the paper's 2c —
/// used by the threshold-ablation bench (A2). core_slow(c) equals
/// core_slow_threshold(2c).
CoreResult core_slow_threshold(congest::Network& net, const SpanningTree& tree,
                               const congest::PerNode<PartId>& active_part_of,
                               std::int32_t threshold);

}  // namespace lcs
