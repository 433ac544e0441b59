#include "shortcut/superstep.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;

/// One round: every node announces its part id on all incident edges.
class PartExchangeProcess final : public congest::Process {
 public:
  PartExchangeProcess(NodeId id, const Partition& partition,
                      std::vector<PartId>& out)
      : id_(id), partition_(partition), out_(out) {}

  void on_start(Context& ctx) override {
    const auto encoded = static_cast<std::uint64_t>(
        partition_.part(id_) == kNoPart
            ? std::uint64_t{0}
            : static_cast<std::uint64_t>(partition_.part(id_)) + 1);
    for (const auto& nb : ctx.neighbors()) ctx.send(nb.edge, Message(0, encoded));
    out_.assign(ctx.neighbors().size(), kNoPart);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox) {
      // Locate the neighbor slot for this edge.
      const auto nbs = ctx.neighbors();
      for (std::size_t k = 0; k < nbs.size(); ++k) {
        if (nbs[k].edge == in.edge) {
          out_[k] = in.msg.words[0] == 0
                        ? kNoPart
                        : util::checked_cast<PartId>(in.msg.words[0] - 1);
          break;
        }
      }
    }
  }

 private:
  NodeId id_;
  const Partition& partition_;
  std::vector<PartId>& out_;
};

/// One round: part members send hook-provided words to same-part neighbors.
class CrossExchangeProcess final : public congest::Process {
 public:
  CrossExchangeProcess(NodeId id, const Partition& partition,
                       const NeighborParts& neighbor_parts,
                       const SuperstepHooks& hooks)
      : id_(id),
        partition_(partition),
        neighbor_parts_(neighbor_parts),
        hooks_(hooks) {}

  void on_start(Context& ctx) override {
    const PartId j = partition_.part(id_);
    if (j == kNoPart) return;
    const auto nbs = ctx.neighbors();
    const auto& parts = neighbor_parts_.of[static_cast<std::size_t>(id_)];
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (parts[k] != j) continue;
      const auto msg = hooks_.cross_message(id_, nbs[k].node, nbs[k].edge);
      if (msg.has_value()) ctx.send(nbs[k].edge, Message(0, *msg));
    }
  }

  void on_round(Context&, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox)
      hooks_.on_cross(id_, in.from, in.edge, in.msg.words[0]);
  }

 private:
  NodeId id_;
  const Partition& partition_;
  const NeighborParts& neighbor_parts_;
  const SuperstepHooks& hooks_;
};

/// `0 .. count - 1` stably sorted by `key(i)`, a value below `num_keys`.
template <class Key>
std::vector<std::size_t> counting_order(std::size_t count,
                                        std::size_t num_keys, Key key) {
  std::vector<std::size_t> first(num_keys + 1, 0);
  for (std::size_t i = 0; i < count; ++i) ++first[key(i) + 1];
  for (std::size_t k = 0; k < num_keys; ++k) first[k + 1] += first[k];
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[first[key(i)]++] = i;
  return order;
}

}  // namespace

NeighborParts exchange_neighbor_parts(congest::Network& net,
                                      const Partition& partition) {
  NeighborParts result;
  result.of.resize(static_cast<std::size_t>(net.num_nodes()));
  std::vector<PartExchangeProcess> procs;
  procs.reserve(static_cast<std::size_t>(net.num_nodes()));
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    procs.emplace_back(v, partition, result.of[static_cast<std::size_t>(v)]);
  congest::run_phase(net, procs);
  return result;
}

SuperstepRunner::SuperstepRunner(congest::Network& net,
                                 const SpanningTree& tree,
                                 const Partition& partition,
                                 const ShortcutState& state,
                                 const NeighborParts& neighbor_parts)
    : net_(net),
      tree_(tree),
      partition_(partition),
      state_(state),
      neighbor_parts_(neighbor_parts) {
  const Graph& g = net.graph();
  const NodeId n = net.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  const ComponentPlan& plan = state.plan;
  LCS_CHECK(tree.depth.size() == un && tree.parent.size() == un &&
                partition.part_of.size() == un &&
                state.own_singleton.size() == un &&
                plan.slot_off.size() == un + 1 &&
                neighbor_parts.of.size() == un,
            "superstep inputs sized for a different network");

  // Same-part directed edges in the exchange's send order, then their
  // delivery order: receiver ascending, send order within a receiver.
  for (NodeId v = 0; v < n; ++v) {
    const auto nbs = g.neighbors(v);
    const auto& parts = neighbor_parts.of[static_cast<std::size_t>(v)];
    LCS_CHECK(parts.size() == nbs.size(),
              "neighbor parts misaligned with the adjacency");
    const PartId j = partition.part(v);
    if (j == kNoPart) continue;
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (parts[k] != j) continue;
      cross_.push_back(CrossEdge{v, nbs[k].node, nbs[k].edge});
    }
  }
  delivery_ = counting_order(cross_.size(), un, [&](std::size_t i) {
    return static_cast<std::size_t>(cross_[i].to);
  });

  // Every slot with its parent slot (same part at the tree parent),
  // shallowest nodes first.
  const std::int32_t height =
      n == 0 ? 0 : *std::max_element(tree.depth.begin(), tree.depth.end());
  const std::vector<std::size_t> nodes =
      counting_order(un, util::checked_usize(height) + 1, [&](std::size_t v) {
        return util::checked_usize(tree.depth[v]);
      });
  by_depth_.reserve(plan.slots.size());
  for (const std::size_t i : nodes) {
    const auto v = util::checked_cast<NodeId>(i);
    const NodeId up = tree.parent[i];
    for (std::size_t s = plan.slot_off[i]; s < plan.slot_off[i + 1]; ++s) {
      const ComponentPlan::Slot& slot = plan.slots[s];
      std::size_t parent = kRootSlot;
      if (slot.has_parent) {
        LCS_CHECK(up != kNoNode, "the tree root has no parent slot");
        const auto u = static_cast<std::size_t>(up);
        const auto first =
            plan.slots.begin() + static_cast<std::ptrdiff_t>(plan.slot_off[u]);
        const auto last = plan.slots.begin() +
                          static_cast<std::ptrdiff_t>(plan.slot_off[u + 1]);
        const auto it = std::lower_bound(
            first, last, slot.part,
            [](const ComponentPlan::Slot& a, PartId p) { return a.part < p; });
        LCS_CHECK(it != last && it->part == slot.part,
                  "component plan has a slot without its parent slot");
        parent = static_cast<std::size_t>(it - plan.slots.begin());
        ++parent_slots_;
      }
      by_depth_.push_back(TreeSlot{s, parent, v});
    }
  }
}

void SuperstepRunner::run(const SuperstepHooks& hooks) {
  LCS_CHECK(hooks.contribution && hooks.combine && hooks.on_aggregate,
            "superstep hooks incomplete");
  LCS_CHECK(!hooks.cross_message || static_cast<bool>(hooks.on_cross),
            "cross_message requires on_cross");
  if (recorded_) {
    replay(hooks);
  } else {
    record(hooks);
  }

  // Singleton components never exchange intra-component messages: their
  // aggregate is the node's own contribution (a local computation, zero
  // rounds).
  for (NodeId v = 0; v < net_.num_nodes(); ++v) {
    if (!state_.own_singleton[static_cast<std::size_t>(v)]) continue;
    const PartId j = partition_.part(v);
    hooks.on_aggregate(v, j, hooks.contribution(v, j));
  }
}

void SuperstepRunner::record(const SuperstepHooks& hooks) {
  // 1. Cross-edge exchange between adjacent supernodes over G[Pi] edges.
  if (hooks.cross_message) {
    std::vector<CrossExchangeProcess> procs;
    procs.reserve(static_cast<std::size_t>(net_.num_nodes()));
    for (NodeId v = 0; v < net_.num_nodes(); ++v)
      procs.emplace_back(v, partition_, neighbor_parts_, hooks);
    congest::run_phase(net_, procs);
  }

  // 2. Convergecast within components; roots hold the per-component
  //    result in a flat array keyed by the plan's rooted-component index.
  //    Each entry belongs to one root node and is written and read only
  //    through that node's callbacks, so it is per-node state.
  const ComponentPlan& plan = state_.plan;
  std::vector<std::uint64_t> root_agg(plan.rooted.size(), hooks.identity);
  const congest::PhaseStats up = run_component_convergecast(
      net_, tree_, plan, hooks.contribution, hooks.combine,
      [&](NodeId root, PartId j, std::uint64_t agg) {
        root_agg[plan.rooted_index(root, j)] = agg;
      });

  // 3. Broadcast the aggregates back down the components.
  const congest::PhaseStats down = run_component_broadcast(
      net_, tree_, plan,
      [&](NodeId root, PartId j) {
        return root_agg[plan.rooted_index(root, j)];
      },
      [&](NodeId v, PartId j, std::uint64_t value, std::int32_t) {
        hooks.on_aggregate(v, j, value);
      });

  // The replay sends one message per slot that rides its parent edge, in
  // each direction; the schedule just simulated must agree.
  LCS_CHECK(up.messages == parent_slots_ && down.messages == parent_slots_,
            "superstep schedule is not one message per parent-edge slot");
  tree_stats_ = {up.rounds + down.rounds, up.messages + down.messages};
  recorded_ = true;
}

void SuperstepRunner::replay(const SuperstepHooks& hooks) {
  congest::PhaseStats stats = tree_stats_;

  // 1. Cross-edge exchange: one round if any word was sent.
  if (hooks.cross_message) {
    cross_word_.resize(cross_.size());
    std::int64_t sent = 0;
    for (std::size_t i = 0; i < cross_.size(); ++i) {
      const CrossEdge& x = cross_[i];
      cross_word_[i] = hooks.cross_message(x.from, x.to, x.edge);
      if (cross_word_[i].has_value()) ++sent;
    }
    for (const std::size_t i : delivery_) {
      if (!cross_word_[i].has_value()) continue;
      const CrossEdge& x = cross_[i];
      hooks.on_cross(x.to, x.from, x.edge, *cross_word_[i]);
    }
    stats.rounds += sent > 0 ? 1 : 0;
    stats.messages += sent;
  }

  // 2. Convergecast: contributions in the engine's on_start order, then
  //    children fold into parents, deepest nodes first.
  const ComponentPlan& plan = state_.plan;
  acc_.resize(plan.slots.size());
  for (NodeId v = 0; v < net_.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    for (std::size_t s = plan.slot_off[i]; s < plan.slot_off[i + 1]; ++s)
      acc_[s] = hooks.contribution(v, plan.slots[s].part);
  }
  for (auto it = by_depth_.rbegin(); it != by_depth_.rend(); ++it) {
    if (it->parent != kRootSlot)
      acc_[it->parent] = hooks.combine(acc_[it->parent], acc_[it->slot]);
  }

  // 3. Broadcast: shallowest first, so a parent slot already holds its
  //    component root's aggregate when its children copy it.
  for (const TreeSlot& t : by_depth_) {
    if (t.parent != kRootSlot) acc_[t.slot] = acc_[t.parent];
    hooks.on_aggregate(t.node, plan.slots[t.slot].part, acc_[t.slot]);
  }

  net_.add_replayed(stats);
}

}  // namespace lcs
