#include "shortcut/superstep.h"

#include <cstdint>
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

void run_superstep(congest::Network& net, const SpanningTree& tree,
                   const Partition& partition, const ShortcutState& state,
                   const NeighborParts& neighbor_parts,
                   const SuperstepHooks& hooks) {
  LCS_CHECK(hooks.contribution && hooks.combine && hooks.on_aggregate,
            "superstep hooks incomplete");

  // 1. Cross-edge exchange between adjacent supernodes over G[Pi] edges.
  if (hooks.cross_message) {
    LCS_CHECK(static_cast<bool>(hooks.on_cross),
              "cross_message requires on_cross");
    std::vector<CrossExchangeProcess> procs;
    procs.reserve(static_cast<std::size_t>(net.num_nodes()));
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      procs.emplace_back(v, partition, neighbor_parts, hooks);
    congest::run_phase(net, procs);
  }

  // 2. Convergecast within components; roots hold the per-component
  //    result in a flat array keyed by the plan's rooted-component index.
  //    Each entry belongs to one root node and is written and read only
  //    through that node's callbacks, so it is per-node state.
  const ComponentPlan& plan = state.plan;
  std::vector<std::uint64_t> root_agg(plan.rooted.size(), hooks.identity);
  run_component_convergecast(
      net, tree, plan, hooks.contribution, hooks.combine,
      [&](NodeId root, PartId j, std::uint64_t agg) {
        root_agg[plan.rooted_index(root, j)] = agg;
      });

  // 3. Broadcast the aggregates back down the components.
  run_component_broadcast(
      net, tree, plan,
      [&](NodeId root, PartId j) {
        return root_agg[plan.rooted_index(root, j)];
      },
      [&](NodeId v, PartId j, std::uint64_t value, std::int32_t) {
        hooks.on_aggregate(v, j, value);
      });

  // Singleton components never exchange intra-component messages: their
  // aggregate is the node's own contribution (a local computation, zero
  // rounds).
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!state.own_singleton[static_cast<std::size_t>(v)]) continue;
    const PartId j = partition.part(v);
    hooks.on_aggregate(v, j, hooks.contribution(v, j));
  }
}

}  // namespace lcs
