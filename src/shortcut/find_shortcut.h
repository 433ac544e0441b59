/// \file find_shortcut.h
/// The FindShortcut framework (Theorem 3) and the unknown-parameter
/// doubling wrapper (Appendix A).
///
/// FindShortcut alternates a core subroutine (CoreFast by default, CoreSlow
/// optionally) with Verification: each iteration computes a tentative
/// shortcut whose congestion is O(c), keeps the parts whose block count is
/// at most 3b ("good" parts, at least half of the remainder w.h.p.), and
/// retries with the rest. After O(log N) iterations every part is fixed;
/// the union of the fixed subgraphs has congestion O(c log N) and block
/// parameter 3b. Whether any part remains is decided by an O(D)
/// OR-convergecast over the tree, exactly as in Section 5.2.
///
/// The doubling wrapper removes the need to know (b, c): it runs trials
/// with (b̂, ĉ) = (2^t, 2^t), declaring a trial failed when it stalls or
/// its iteration budget is exhausted, which adds a log(bc) factor — and
/// lets the construction *discover* much better shortcuts than the
/// theoretical bound whenever they exist (Appendix A's observation).
///
/// ## What a trial computes and what it charges
///
/// Every iteration a trial runs costs core, representation, neighbor
/// exchange, Verification and termination check, and is counted in
/// `FindShortcutStats::iterations`. A trial runs up to its success, its
/// budget, or its first stalled iteration:
///
///  * **Stalled trials end.** An iteration hands the next nothing but the
///    unserved parts; only the core's seed changes between them. If one
///    retires no node and the core ignores its seed (CoreSlow, or CoreFast
///    at sampling probability 1, core_fast.h), the next iteration sees the
///    same parts, builds the same tentative shortcut, reaches the same
///    verdicts and retires nothing either, and so does every iteration
///    after it: the trial is lost. So it ends there, charged for the
///    iterations it ran, stalled one included. Every node knows whether
///    the core is seedless (it knows n, c and γ), and learns whether any
///    node retired from the termination check itself: its OR-convergecast
///    carries the "some node retired" bit beside "parts remain" in the
///    same O(log n)-bit word, at the same 2·height rounds and 2(n − 1)
///    messages. Ending there changes no output: the iterations skipped
///    would fix no part, and each trial's core seeds count from its own
///    first iteration, so the next trial, its (c, b), its shortcut and its
///    representation are the ones a trial run to its budget leads to; only
///    the rounds, messages and iterations charged are fewer.
///  * **A trial served at once hands back its runner.** When the iteration
///    that serves the last parts is also the first to serve any, the
///    combined shortcut is that iteration's tentative shortcut, on the
///    caller's partition. Its `ShortcutState` and the runner its
///    Verification built on it (on the caller's partition and that
///    partition's neighbor parts; superstep.h, "Who owns a runner") are
///    returned, and its representation broadcast is charged again, instead
///    of building the plan, counting both casts and building the runner a
///    second time. Any other successful trial builds its state once, after
///    its last iteration's are gone, and no runner. Only
///    `find_routable_shortcut` returns a runner: the handed-back one, or
///    one it builds on the state. The other two entry points route on
///    nothing, so they drop a handed-back runner and build none.
///  * **One exchange array per partition.** The doubling computes the
///    caller partition's neighbor parts once. Every iteration charges its
///    exchange round on that array and builds its Verification runner on
///    it, also after parts have retired, and a `PartAggregator`
///    (apps/aggregate.h) charges its own round on it too. This is exact:
///    the array an exchange on the remaining partition would teach differs
///    only where a neighbor has retired (kNoPart there, its part here).
///    Verification's verdict is the same for every member of a part, so
///    parts retire whole and a retired node's part is never an active
///    node's part. The runner's same-part test therefore reads the same on
///    both arrays, and the round costs 2m messages and one round on either.
#pragma once

#include "congest/network.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct FindShortcutParams {
  std::int32_t c = 1;   ///< assumed congestion of an existing shortcut
  std::int32_t b = 1;   ///< assumed block parameter of an existing shortcut
  bool use_fast = true; ///< CoreFast (randomized) vs CoreSlow (deterministic)
  double gamma = 4.0;   ///< CoreFast sampling constant
  std::uint64_t seed = 1;  ///< shared-randomness seed
  /// Iteration cap per trial; 0 = automatic (2·log2(N) + 8).
  std::int32_t max_iterations = 0;
};

struct FindShortcutStats {
  std::int32_t iterations = 0;  ///< core+verify iterations run
  std::int32_t trials = 1;      ///< doubling trials (1 when params known)
  std::int32_t used_c = 0;      ///< c of the successful trial
  std::int32_t used_b = 0;      ///< b of the successful trial
  std::int64_t rounds = 0;      ///< CONGEST rounds consumed by the call
};

struct FindShortcutResult {
  ShortcutState state;  ///< combined shortcut + distributed representation
  FindShortcutStats stats;
};

/// Theorem 3: construct a T-restricted shortcut for `partition`, assuming a
/// (c, b) shortcut exists. Throws CheckFailure if the trial stalls or its
/// iteration budget is exhausted (i.e. the assumption was too optimistic —
/// use the doubling variant when unsure).
FindShortcutResult find_shortcut(congest::Network& net,
                                 const SpanningTree& tree,
                                 const Partition& partition,
                                 const FindShortcutParams& params);

/// Appendix A: construct a shortcut without knowing (b, c), doubling the
/// estimates after every failed trial. `params.c` / `params.b` seed the
/// first trial.
FindShortcutResult find_shortcut_doubling(congest::Network& net,
                                          const SpanningTree& tree,
                                          const Partition& partition,
                                          FindShortcutParams params);

/// A doubling's result with the host structures it built on the caller's
/// partition, for part-wise routing on the shortcut (apps/aggregate.h).
struct RoutableShortcut {
  FindShortcutResult found;
  /// The caller partition's neighbor parts, computed once for every
  /// FindShortcut iteration. A caller that routes on the shortcut charges
  /// its own exchange round on it (`charge_exchange`).
  NeighborParts neighbor_parts;
  /// The runner on `found.state`, the caller's partition and
  /// `neighbor_parts`: the successful trial's, or one built after it (see
  /// the file comment). It refers to `net` and the caller's partition.
  SuperstepRunner runner;
};

/// `find_shortcut_doubling`, with the same rounds, messages and result,
/// keeping the neighbor parts it computed and a runner on `partition`.
RoutableShortcut find_routable_shortcut(congest::Network& net,
                                        const SpanningTree& tree,
                                        const Partition& partition,
                                        FindShortcutParams params);

}  // namespace lcs
