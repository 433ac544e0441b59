#include "shortcut/representation.h"

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/check.h"

namespace lcs {

ShortcutState compute_shortcut_state(congest::Network& net,
                                     const SpanningTree& tree,
                                     const Partition& partition,
                                     Shortcut shortcut) {
  const auto n = static_cast<std::size_t>(net.num_nodes());
  LCS_CHECK(tree.depth.size() == n && partition.part_of.size() == n,
            "component plan built for a different network");

  ShortcutState state;
  state.shortcut = std::move(shortcut);
  state.own_block_root.assign(n, kNoNode);
  state.plan = make_component_plan(tree, state.shortcut);
  ComponentPlan& plan = state.plan;

  // Each component root floods its own id; the depth rides along in the
  // message. The broadcast gives every slot its component root: a slot
  // that rides its node's parent edge records the root's depth (each
  // component edge is filled exactly once, by its lower endpoint), and a
  // part member its block id.
  const BroadcastSchedule cast = broadcast_schedule(tree, plan);
  for (std::size_t s = 0; s < plan.slots.size(); ++s) {
    if (!plan.slots[s].has_parent()) continue;
    LCS_CHECK(cast.root[s] != kNoNode,
              "component broadcast missed a parent-edge slot");
    plan.slots[s].parent_root_depth =
        tree.depth[static_cast<std::size_t>(cast.root[s])];
  }
  // A part member's block id is its own-part slot's root. A member without
  // that slot has no incident own-part shortcut edge and roots its own
  // singleton component: purely local knowledge.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const PartId j = partition.part(v);
    if (j == kNoPart) continue;
    const std::size_t s = plan.slot_index(v, j);
    state.own_block_root[static_cast<std::size_t>(v)] =
        s < plan.slots.size() ? cast.root[s] : v;
  }

  plan.has_root_depths = true;
  state.broadcast = cast.stats;
  net.add_replayed(cast.stats);
  state.convergecast = convergecast_schedule(tree, plan);
  return state;
}

}  // namespace lcs
