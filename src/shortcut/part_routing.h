/// \file part_routing.h
/// Part-level communication primitives on a computed tree-restricted
/// shortcut — Theorem 2: leader election, convergecast, and broadcast for
/// all parts in parallel, each in O(b(D + c)) rounds.
///
/// All three reduce to an idempotent *min-flood* over each part's
/// supergraph of block components: one superstep (cross-edge exchange +
/// intra-component aggregation, see superstep.h) propagates the minimum one
/// supernode-hop, so `b` supersteps suffice when the shortcut has block
/// parameter `b` (the supergraph has at most b supernodes).
///
/// The flood keeps one value per supernode. Its first superstep reads each
/// member's own value over the runner's links (members of one supernode may
/// start with different values); after it every member holds its
/// supernode's minimum, and each later superstep moves supernode values
/// over the links (`SuperstepRunner::min_step`).
///
///  * leader election  = min-flood of member node ids;
///  * convergecast     = min-flood of packed (value, origin) words — with
///    the (weight, edge-id) packing this is exactly the "minimum-weight
///    outgoing edge" step Boruvka needs;
///  * broadcast        = min-flood where only the source holds a non-sentinel
///    value.
#pragma once

#include <limits>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// Sentinel meaning "no value": the identity of the min-flood.
inline constexpr std::uint64_t kNoValue =
    std::numeric_limits<std::uint64_t>::max();

/// Min-flood: after the call, every member of every part holds the minimum
/// of `init` over the members of its part (entries of non-members are
/// ignored). `b_steps` must be at least the block parameter of the
/// runner's shortcut. O(b_steps · (D + c)) rounds, all of them charged;
/// the supersteps past the flood's fixed point are charged without being
/// run (`run_to_fixed_point`). One runner serves any number of floods on
/// its shortcut and partition.
congest::PerNode<std::uint64_t> part_min_flood(
    SuperstepRunner& runner, std::int32_t b_steps,
    const congest::PerNode<std::uint64_t>& init);

/// The same min-flood on a runner of its own over `state`.
congest::PerNode<std::uint64_t> part_min_flood(
    congest::Network& net, const SpanningTree& tree, const Partition& partition,
    const ShortcutState& state, const NeighborParts& neighbor_parts,
    std::int32_t b_steps, const congest::PerNode<std::uint64_t>& init);

/// Theorem 2(i): every part member learns the smallest node id in its part
/// (a min-flood of member ids on `runner`).
congest::PerNode<NodeId> elect_part_leaders(SuperstepRunner& runner,
                                            std::int32_t b_steps);

/// The same election on a runner of its own over `state`.
congest::PerNode<NodeId> elect_part_leaders(
    congest::Network& net, const SpanningTree& tree, const Partition& partition,
    const ShortcutState& state, const NeighborParts& neighbor_parts,
    std::int32_t b_steps);

/// Theorem 2(iii): flood `value_at_source[v]` (< kNoValue at exactly the
/// source member(s) of each part, kNoValue elsewhere) to every member.
congest::PerNode<std::uint64_t> part_broadcast(
    congest::Network& net, const SpanningTree& tree, const Partition& partition,
    const ShortcutState& state, const NeighborParts& neighbor_parts,
    std::int32_t b_steps, const congest::PerNode<std::uint64_t>& value_at_source);

}  // namespace lcs
