#include "shortcut/verification.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

namespace {

constexpr std::uint64_t kIdentityMin = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kInfDepth = 0xFFFFFFFFu;
/// A count that can never pass `count <= b_limit`: each flagged member adds
/// it to its supernode's count.
constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
constexpr std::uint64_t kSatCap = std::uint64_t{1} << 62;

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return std::min(a + b, kSatCap);
}

enum Verdict : std::uint64_t { kUnknown = 0, kGood = 1, kBad = 2 };

}  // namespace

VerificationResult verify_block_parameter(congest::Network& net,
                                          const SpanningTree& tree,
                                          const Partition& partition,
                                          const ShortcutState& state,
                                          std::int32_t b_limit,
                                          const NeighborParts& neighbor_parts) {
  LCS_CHECK(b_limit >= 1, "block budget must be positive");
  const auto n = static_cast<std::size_t>(net.num_nodes());
  const auto u64 = [](NodeId v) { return static_cast<std::size_t>(v); };

  // Every phase below is a loop of supersteps on the same shortcut, each
  // keeping one value per supernode (superstep.h); only the anomaly flags
  // are per node.
  SuperstepRunner superstep(net, tree, partition, state, neighbor_parts);
  using Link = SuperstepRunner::Link;
  using Supernode = SuperstepRunner::Supernode;
  const std::size_t supers = superstep.num_supernodes();
  const auto links = superstep.links();

  std::vector<std::uint64_t> block(supers, kIdentityMin);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const Supernode s = superstep.supernode(v);
    if (s != SuperstepRunner::kNoSupernode)
      block[s] = static_cast<std::uint64_t>(state.own_block_root[u64(v)]);
  }
  std::vector<char> flag(n, 0);

  // V2 and V4 are idempotent floods like V1: a superstep that writes
  // nothing new ends the loop (run_to_fixed_point charges the rest as its
  // copies). Each reads the values as they were before the superstep.
  bool changed = false;
  const auto raise = [&](NodeId v) {
    if (flag[u64(v)]) return;
    flag[u64(v)] = 1;
    changed = true;
  };
  std::vector<std::uint64_t> before;

  // --- Phase V1: leader min-flood over the supergraph --------------------
  std::vector<std::uint64_t> lead = block;
  run_to_fixed_point(superstep, b_limit,
                     [&] { return superstep.min_step(lead); });

  // --- Phase V2: BFS depths from self-believed leader supernodes ---------
  // A word from another leader flags the member it reaches; a word from a
  // reached supernode with the same leader offers one more than its depth.
  std::vector<std::uint64_t> depth(supers, kInfDepth);
  for (std::size_t s = 0; s < supers; ++s)
    if (lead[s] == block[s]) depth[s] = 0;
  run_to_fixed_point(superstep, b_limit, [&] {
    changed = false;
    before = depth;
    for (const Link& link : links) {
      const std::uint64_t other = before[link.from_super];
      if (lead[link.from_super] != lead[link.to_super]) {
        raise(link.to);
      } else if (other != kInfDepth && other + 1 < depth[link.to_super]) {
        depth[link.to_super] = other + 1;
        changed = true;
      }
    }
    superstep.charge(superstep.all_sends());
    return changed;
  });

  // --- Phase V2.5: choose one boundary edge to the BFS parent ------------
  // The smallest edge id over which a supernode heard from the level above
  // it, and the supernode at its other end.
  std::vector<std::uint64_t> parent_edge(supers, kIdentityMin);
  std::vector<Supernode> parent(supers, SuperstepRunner::kNoSupernode);
  for (const Link& link : links) {
    const std::uint64_t other = depth[link.from_super];
    const std::uint64_t mine = depth[link.to_super];
    if (lead[link.from_super] != lead[link.to_super]) {
      flag[u64(link.to)] = 1;
    } else if (other == kInfDepth && mine != kInfDepth) {
      // Same leader but unreached neighbor: the BFS did not cover the
      // supergraph within b_limit steps, so the part has too many blocks.
      flag[u64(link.to)] = 1;
    } else if (mine != kInfDepth && other + 1 == mine) {
      const auto e = static_cast<std::uint64_t>(link.edge);
      if (e < parent_edge[link.to_super]) {
        parent_edge[link.to_super] = e;
        parent[link.to_super] = link.from_super;
      }
    }
  }
  superstep.charge(superstep.all_sends());

  // --- Phase V3: count supernodes up the super-BFS tree ------------------
  // A supernode's count is the words it received plus kHuge per flagged
  // member.
  std::vector<std::uint64_t> flagged(supers, 0);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (flag[u64(v)]) {
      const Supernode s = superstep.supernode(v);
      flagged[s] = sat_add(flagged[s], kHuge);
    }
  }
  std::vector<std::uint64_t> received(supers, 0);
  // V3.0: aggregate-only superstep so the deepest components know their
  // own flag totals before sending.
  std::vector<std::uint64_t> count = flagged;
  superstep.charge(0);

  // Level tau sends only from depth tau, over the edge to the BFS parent.
  // Above the deepest depth any supernode reached, a level sends nothing,
  // so it changes nothing and costs what V3.0 did: those levels are
  // charged as its copies.
  std::uint64_t deepest = 0;
  for (const std::uint64_t d : depth)
    if (d != kInfDepth) deepest = std::max(deepest, d);
  const auto first_tau = util::checked_cast<std::int32_t>(
      std::min<std::uint64_t>(deepest, static_cast<std::uint64_t>(b_limit)));
  superstep.repeat_last(b_limit - first_tau);
  for (std::int32_t tau = first_tau; tau >= 1; --tau) {
    std::int64_t words = 0;
    for (std::size_t s = 0; s < supers; ++s) {
      if (depth[s] != static_cast<std::uint64_t>(tau) ||
          parent[s] == SuperstepRunner::kNoSupernode)
        continue;
      // This component's subtree count.
      received[parent[s]] =
          sat_add(received[parent[s]], sat_add(count[s], 1));
      ++words;
    }
    superstep.charge(words);
    for (std::size_t s = 0; s < supers; ++s)
      count[s] = sat_add(received[s], flagged[s]);
  }

  // --- Phase V4: verdict flood from the leader supernode ------------------
  std::vector<std::uint64_t> verdict(supers, kUnknown);
  for (std::size_t s = 0; s < supers; ++s) {
    if (depth[s] == 0) {
      const std::uint64_t total = sat_add(count[s], 1);
      verdict[s] = total <= static_cast<std::uint64_t>(b_limit) ? kGood : kBad;
    }
  }
  run_to_fixed_point(superstep, b_limit, [&] {
    changed = false;
    before = verdict;
    // Members of a supernode with a verdict speak on every same-part edge.
    std::int64_t words = 0;
    for (Supernode s = 0; s < supers; ++s)
      if (before[s] != kUnknown) words += superstep.sends(s);
    for (const Link& link : links) {
      const std::uint64_t other = before[link.from_super];
      if (other != kUnknown && lead[link.from_super] == lead[link.to_super] &&
          other > verdict[link.to_super]) {
        verdict[link.to_super] = other;
        changed = true;
      }
    }
    superstep.charge(words);
    return changed;
  });

  // --- Local decisions ----------------------------------------------------
  VerificationResult result;
  result.node_good.assign(n, false);
  result.part_good.assign(static_cast<std::size_t>(partition.num_parts),
                          false);
  std::vector<char> part_seen(static_cast<std::size_t>(partition.num_parts),
                              0);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const PartId j = partition.part(v);
    if (j == kNoPart) continue;
    const Supernode s = superstep.supernode(v);
    const bool good =
        verdict[s] == kGood && !flag[u64(v)] && depth[s] != kInfDepth;
    result.node_good[u64(v)] = good;
    if (!part_seen[static_cast<std::size_t>(j)]) {
      part_seen[static_cast<std::size_t>(j)] = 1;
      result.part_good[static_cast<std::size_t>(j)] = good;
    } else {
      LCS_CHECK(result.part_good[static_cast<std::size_t>(j)] == good,
                "verification verdict must be unanimous within a part");
    }
  }
  return result;
}

}  // namespace lcs
