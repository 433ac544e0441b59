#include "shortcut/representation.h"

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

ShortcutState compute_shortcut_state(congest::Network& net,
                                     const SpanningTree& tree,
                                     const Partition& partition,
                                     Shortcut shortcut) {
  const auto n = static_cast<std::size_t>(net.num_nodes());

  ShortcutState state;
  state.shortcut = std::move(shortcut);
  state.own_block_root.assign(n, kNoNode);
  state.plan = make_component_plan(tree, state.shortcut);
  ComponentPlan& plan = state.plan;

  // Each component root floods its own id; the depth rides along in the
  // message. At every node the broadcast fills the root depth of the slot
  // that rides the parent edge (each component edge is filled exactly once,
  // by its lower endpoint) and, for nodes of the part itself, the block id.
  auto root_value = [](NodeId root, PartId) -> std::uint64_t {
    return static_cast<std::uint64_t>(root);
  };
  auto on_receive = [&](NodeId v, PartId j, std::uint64_t value,
                        std::int32_t root_depth) {
    const std::size_t s = plan.slot_index(v, j);
    if (s < plan.slots.size() && plan.slots[s].has_parent)
      plan.slots[s].parent_root_depth = root_depth;
    if (partition.part(v) == j)
      state.own_block_root[static_cast<std::size_t>(v)] =
          util::checked_cast<NodeId>(value);
  };
  state.broadcast =
      run_component_broadcast(net, tree, plan, root_value, on_receive);

  // Singleton components: a part node with no incident own-part shortcut
  // edge roots its own (empty) component. This is purely local knowledge.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (partition.part(v) == kNoPart) continue;
    NodeId& root = state.own_block_root[static_cast<std::size_t>(v)];
    if (root == kNoNode) root = v;
  }

  // Every parent-edge slot must have been reached.
  for (const ComponentPlan::Slot& slot : plan.slots)
    LCS_CHECK(!slot.has_parent || slot.parent_root_depth >= 0,
              "component broadcast missed a parent-edge slot");
  plan.has_root_depths = true;
  return state;
}

}  // namespace lcs
