#include "shortcut/tree_ops.h"

#include <algorithm>
#include <cstdint>

#include "congest/network.h"
#include "congest/process.h"
#include "tree/spanning_tree.h"
#include "util/check.h"

namespace lcs {

namespace {

/// One message per tree edge: n − 1 of them.
std::int64_t tree_edges(const congest::Network& net, const SpanningTree& tree) {
  LCS_CHECK(net.num_nodes() >= 1 && tree.num_nodes() == net.num_nodes(),
            "tree sized for a different network");
  return static_cast<std::int64_t>(net.num_nodes()) - 1;
}

}  // namespace

congest::PerNode<std::uint64_t> broadcast_word_from_root(
    congest::Network& net, const SpanningTree& tree, std::uint64_t word) {
  net.add_replayed({tree.height, tree_edges(net, tree)});
  return congest::PerNode<std::uint64_t>(
      static_cast<std::size_t>(net.num_nodes()), word);
}

bool global_or(congest::Network& net, const SpanningTree& tree,
               const congest::PerNode<bool>& bits) {
  LCS_CHECK(bits.size() == static_cast<std::size_t>(net.num_nodes()),
            "one bit per node required");
  net.add_replayed({2 * std::int64_t{tree.height}, 2 * tree_edges(net, tree)});
  return std::find(bits.begin(), bits.end(), true) != bits.end();
}

}  // namespace lcs
