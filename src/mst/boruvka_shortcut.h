/// \file boruvka_shortcut.h
/// Lemma 4: distributed MST via Boruvka + tree-restricted shortcuts.
///
/// MST runs the shortcut Boruvka loop of boruvka_common.h with the
/// (weight, edge id) MWOE as each node's candidate. Each phase: (1) a
/// `PartAggregator` builds the shortcut for the current fragments
/// (FindShortcut with Appendix-A doubling, warm-started from the previous
/// phase), then neighbors exchange fragment ids; (2) the fragment MWOE is
/// min-flooded over the shortcut supergraph (Theorem 2 routing); (3) star
/// merges are proposed, broadcast on the aggregator's runner, and applied;
/// (4) an O(D) tree OR-convergecast decides termination. On graphs with
/// good shortcuts every phase costs Õ(D), giving Õ(D) MST overall — the
/// paper's headline application.
#pragma once

#include "congest/network.h"
#include "mst/mwoe.h"
#include "shortcut/find_shortcut.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct ShortcutMstOptions {
  std::uint64_t seed = 1;  ///< drives coins and CoreFast sampling
  /// Initial doubling estimates; successful values are carried between
  /// phases so later phases usually need a single trial.
  FindShortcutParams shortcut_params;
};

/// Compute the MST of `net.graph()` (weights must fit 32 bits). Returns the
/// exact MST under the (weight, edge id) order — identical to kruskal_mst.
DistributedMst mst_boruvka_shortcut(congest::Network& net,
                                    const SpanningTree& tree,
                                    const ShortcutMstOptions& options = {});

}  // namespace lcs
