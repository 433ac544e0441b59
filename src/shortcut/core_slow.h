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
///
/// Round accounting: the stream is counted on the host (`stream_ids_up`)
/// and charged through `Network::add_replayed`, not run on the engine. A
/// node's sends are fixed by the ids below it: it starts one round after
/// its last child's end marker (at the start for a leaf) and sends its
/// ids, one per round, then the marker; an unusable edge carries only the
/// marker. The phase takes latest departure + 2 rounds and one message per
/// id and marker (tree_routing.h's `cast_stats`). `tests/engine_reference.h`
/// keeps the engine protocol it replaces, and `tests/core_test.cpp` checks
/// one against the other.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
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

/// The bottom-up id stream of CoreSlow and of CoreFast's sampled phase.
struct IdStream {
  /// Per edge: the ids streamed over it, ascending, if it is a usable tree
  /// edge; empty for every other edge.
  std::vector<std::vector<PartId>> parts_on_edge;
  /// Per node: its parent edge is unusable (false at the tree root).
  std::vector<bool> unusable;
  /// Its rounds and messages; nothing is charged to any network.
  congest::PhaseStats stats;
};

/// Stream ids up `tree` (see the file comment), counted on the host. Node
/// v's ids are `own[v]` (unless kNoPart) and those its children stream to
/// it; its parent edge is unusable if and only if it has `limit` or more
/// distinct ids: 2c + 1 for CoreSlow, CoreFast's threshold for its sampled
/// ids. `num_edges` sizes `parts_on_edge`.
IdStream stream_ids_up(const SpanningTree& tree,
                       const congest::PerNode<PartId>& own,
                       std::int64_t limit, EdgeId num_edges);

}  // namespace lcs
