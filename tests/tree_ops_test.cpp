#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_ops.h"
#include "test_util.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"

namespace lcs {
namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;
using testutil::Sim;

TEST(TreeOps, BroadcastWordReachesAllNodes) {
  const Graph g = make_grid(7, 7);
  Sim setup(g);
  const auto words =
      broadcast_word_from_root(setup.net, setup.tree, 0xDEADBEEFULL);
  for (const auto w : words) EXPECT_EQ(w, 0xDEADBEEFULL);
}

TEST(TreeOps, BroadcastTakesHeightRounds) {
  const Graph g = make_path(30);
  Sim setup(g);  // rooted at 0, height 29
  const std::int64_t before = setup.net.total_rounds();
  const std::int64_t sent = setup.net.total_messages();
  broadcast_word_from_root(setup.net, setup.tree, 5);
  EXPECT_EQ(setup.net.total_rounds() - before, 29);
  EXPECT_EQ(setup.net.total_messages() - sent, 29);
}

TEST(TreeOps, GlobalOrAllFalse) {
  const Graph g = make_grid(6, 6);
  Sim setup(g);
  congest::PerNode<bool> bits(static_cast<std::size_t>(g.num_nodes()), false);
  EXPECT_FALSE(global_or(setup.net, setup.tree, bits));
}

TEST(TreeOps, GlobalOrSingleDeepBit) {
  const Graph g = make_path(25);
  Sim setup(g);
  congest::PerNode<bool> bits(static_cast<std::size_t>(g.num_nodes()), false);
  bits[24] = true;  // farthest leaf
  EXPECT_TRUE(global_or(setup.net, setup.tree, bits));
}

TEST(TreeOps, GlobalOrRootOnlyBit) {
  const Graph g = make_grid(5, 5);
  Sim setup(g);
  congest::PerNode<bool> bits(static_cast<std::size_t>(g.num_nodes()), false);
  bits[0] = true;
  EXPECT_TRUE(global_or(setup.net, setup.tree, bits));
}

TEST(TreeOps, GlobalOrRoundsLinearInHeight) {
  const Graph g = make_path(40);
  Sim setup(g);
  congest::PerNode<bool> bits(static_cast<std::size_t>(g.num_nodes()), true);
  const std::int64_t before = setup.net.total_rounds();
  const std::int64_t sent = setup.net.total_messages();
  global_or(setup.net, setup.tree, bits);
  // Up the 39 tree edges, then down them: one round and one message each.
  EXPECT_EQ(setup.tree.height, 39);
  EXPECT_EQ(setup.net.total_rounds() - before, 2 * 39);
  EXPECT_EQ(setup.net.total_messages() - sent, 2 * 39);
}

TEST(TreeOps, SingleNodeGraph) {
  const Graph g = make_path(1);
  Sim setup(g);
  congest::PerNode<bool> bits{true};
  EXPECT_TRUE(global_or(setup.net, setup.tree, bits));
  bits[0] = false;
  EXPECT_FALSE(global_or(setup.net, setup.tree, bits));
  EXPECT_EQ(setup.net.total_rounds(), 0);
  EXPECT_EQ(setup.net.total_messages(), 0);
}

// ---------------------------------------------------------------------------
// Engine references. `broadcast_word_from_root`, `global_or` and
// `exchange_neighbor_parts` count their schedules on the host; these are
// the engine protocols they replace. Each host count must give the same
// result and add the same rounds and messages as its reference.

class TreeBroadcastProcess final : public congest::Process {
 public:
  TreeBroadcastProcess(NodeId id, const SpanningTree& tree,
                       std::uint64_t root_word, std::uint64_t& out)
      : id_(id), tree_(tree), root_word_(root_word), out_(out) {}

  void on_start(Context& ctx) override {
    if (id_ != tree_.root) return;
    out_ = root_word_;
    forward(ctx, root_word_);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox) {
      out_ = in.msg.words[0];
      forward(ctx, out_);
    }
  }

 private:
  void forward(Context& ctx, std::uint64_t word) {
    for (const EdgeId ce : tree_.children_edges[static_cast<std::size_t>(id_)])
      ctx.send(ce, Message(0, word));
  }

  NodeId id_;
  const SpanningTree& tree_;
  std::uint64_t root_word_;
  std::uint64_t& out_;
};

enum OrTag : std::uint32_t { kUp, kDown };

class GlobalOrProcess final : public congest::Process {
 public:
  GlobalOrProcess(NodeId id, const SpanningTree& tree, bool bit)
      : id_(id), tree_(tree), acc_(bit) {}

  bool result = false;

  void on_start(Context& ctx) override {
    pending_ = util::checked_cast<int>(
        tree_.children_edges[static_cast<std::size_t>(id_)].size());
    maybe_send_up(ctx);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox) {
      if (in.msg.tag == kUp) {
        acc_ = acc_ || in.msg.words[0] != 0;
        --pending_;
      } else {
        finish(ctx, in.msg.words[0] != 0);
      }
    }
    maybe_send_up(ctx);
  }

 private:
  void maybe_send_up(Context& ctx) {
    if (sent_up_ || pending_ > 0) return;
    sent_up_ = true;
    if (id_ == tree_.root) {
      finish(ctx, acc_);
    } else {
      ctx.send(tree_.parent_edge[static_cast<std::size_t>(id_)],
               Message(kUp, acc_ ? 1 : 0));
    }
  }

  void finish(Context& ctx, bool value) {
    result = value;
    for (const EdgeId ce : tree_.children_edges[static_cast<std::size_t>(id_)])
      ctx.send(ce, Message(kDown, value ? 1 : 0));
  }

  NodeId id_;
  const SpanningTree& tree_;
  bool acc_;
  int pending_ = 0;
  bool sent_up_ = false;
};

/// One round: every node announces its part id on all incident edges.
class PartExchangeProcess final : public congest::Process {
 public:
  PartExchangeProcess(NodeId id, const Partition& partition,
                      std::vector<PartId>& out)
      : id_(id), partition_(partition), out_(out) {}

  void on_start(Context& ctx) override {
    const PartId mine = partition_.part(id_);
    const std::uint64_t encoded =
        mine == kNoPart ? 0 : static_cast<std::uint64_t>(mine) + 1;
    for (const auto& nb : ctx.neighbors())
      ctx.send(nb.edge, Message(0, encoded));
    out_.assign(ctx.neighbors().size(), kNoPart);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    const auto nbs = ctx.neighbors();
    for (const auto& in : inbox) {
      for (std::size_t k = 0; k < nbs.size(); ++k) {
        if (nbs[k].edge != in.edge) continue;
        out_[k] = in.msg.words[0] == 0
                      ? kNoPart
                      : util::checked_cast<PartId>(in.msg.words[0] - 1);
        break;
      }
    }
  }

 private:
  NodeId id_;
  const Partition& partition_;
  std::vector<PartId>& out_;
};

/// Runs `body` and returns the rounds and messages it added to `net`.
template <class Body>
std::pair<std::int64_t, std::int64_t> measure(congest::Network& net,
                                              Body&& body) {
  const std::int64_t r0 = net.total_rounds();
  const std::int64_t m0 = net.total_messages();
  body();
  return {net.total_rounds() - r0, net.total_messages() - m0};
}

/// Every generator family, plus a one-node graph and a path.
std::vector<std::pair<std::string, Graph>> reference_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("grid", make_grid(7, 5));
  graphs.emplace_back("torus", make_torus(5, 4));
  graphs.emplace_back("genus", make_genus_grid(6, 6, 4, 11));
  graphs.emplace_back("cycle", make_cycle(12));
  graphs.emplace_back("tree", make_random_tree(40, 3));
  graphs.emplace_back("maze", make_random_maze(8, 8, 0.4, 5));
  graphs.emplace_back("er", make_erdos_renyi(60, 0.06, 7));
  graphs.emplace_back("wheel", make_wheel(19));
  graphs.emplace_back("lb", make_lower_bound_graph(5, 6));
  graphs.emplace_back("rmat", make_rmat(6, 160, 0.57, 0.19, 0.19, 9));
  graphs.emplace_back("ba", make_barabasi_albert(50, 3, 13));
  graphs.emplace_back("rreg", make_random_regular(30, 4, 15));
  graphs.emplace_back("ktree", make_ktree(40, 3, 17));
  graphs.emplace_back("one-node", make_path(1));
  graphs.emplace_back("path", make_path(23));
  return graphs;
}

/// A random-BFS partition with every third node taken out of its part, so
/// the exchange carries kNoPart too.
Partition holey_partition(const Graph& g) {
  Partition p = make_random_bfs_partition(
      g, std::max<PartId>(1, g.num_nodes() / 6), 5);
  for (std::size_t v = 1; v < p.part_of.size(); v += 3)
    p.part_of[v] = kNoPart;
  return p;
}

TEST(TreeOpsReference, HostCountsMatchEngineProtocols) {
  for (const auto& [name, g] : reference_graphs()) {
    SCOPED_TRACE(name);
    Sim sim(g, 0);
    auto& net = sim.net;
    const auto n = static_cast<std::size_t>(g.num_nodes());

    // broadcast_word_from_root
    congest::PerNode<std::uint64_t> got_words;
    const auto got_b = measure(net, [&] {
      got_words = broadcast_word_from_root(net, sim.tree, 0xC0FFEE);
    });
    congest::PerNode<std::uint64_t> want_words(n, 0);
    const auto want_b = measure(net, [&] {
      std::vector<TreeBroadcastProcess> procs;
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        procs.emplace_back(v, sim.tree, 0xC0FFEE,
                           want_words[static_cast<std::size_t>(v)]);
      congest::run_phase(net, procs);
    });
    EXPECT_EQ(got_words, want_words);
    EXPECT_EQ(got_b, want_b);

    // global_or: no bit, one bit at the deepest node, every third bit.
    congest::PerNode<bool> none(n, false);
    congest::PerNode<bool> deep(n, false);
    deep[static_cast<std::size_t>(
        std::max_element(sim.tree.depth.begin(), sim.tree.depth.end()) -
        sim.tree.depth.begin())] = true;
    congest::PerNode<bool> some(n, false);
    for (std::size_t v = 0; v < n; v += 3) some[v] = true;
    for (const auto* bits : {&none, &deep, &some}) {
      bool got_or = false;
      const auto got_o =
          measure(net, [&] { got_or = global_or(net, sim.tree, *bits); });
      std::vector<GlobalOrProcess> procs;
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        procs.emplace_back(v, sim.tree, (*bits)[static_cast<std::size_t>(v)]);
      const auto want_o =
          measure(net, [&] { congest::run_phase(net, procs); });
      for (const GlobalOrProcess& p : procs) EXPECT_EQ(p.result, got_or);
      EXPECT_EQ(got_o, want_o);
    }

    // exchange_neighbor_parts
    const Partition p = holey_partition(g);
    NeighborParts got_parts;
    const auto got_x = measure(
        net, [&] { got_parts = exchange_neighbor_parts(net, p); });
    congest::PerNode<std::vector<PartId>> want_parts(n);
    const auto want_x = measure(net, [&] {
      std::vector<PartExchangeProcess> procs;
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        procs.emplace_back(v, p, want_parts[static_cast<std::size_t>(v)]);
      congest::run_phase(net, procs);
    });
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto row = got_parts.of(v);
      EXPECT_EQ(std::vector<PartId>(row.begin(), row.end()),
                want_parts[static_cast<std::size_t>(v)])
          << "node " << v;
    }
    EXPECT_EQ(got_x, want_x);
  }
}

}  // namespace
}  // namespace lcs
