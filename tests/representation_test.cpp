#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/existential.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "test_util.h"
#include "tree/spanning_tree.h"

namespace lcs {
namespace {

using testutil::Sim;
using testutil::central_components;

/// The routing plan against the centralized components: each node's slots
/// are exactly the parts on its incident tree edges, `expected` counts the
/// child edges carrying the part, a parent-edge slot holds its component
/// root's depth, and the slots without a parent edge are the components
/// rooted there (with no depth).
void expect_plan_matches_components(const Graph& g, const SpanningTree& tree,
                                    const Partition& p, const Shortcut& s,
                                    const ComponentPlan& plan) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::map<PartId, ComponentPlan::Slot>> want_slots(n);
  for (PartId j = 0; j < p.num_parts; ++j) {
    for (const auto& comp : central_components(g, tree, p, s, j)) {
      if (comp.edges.empty()) continue;  // singletons: no tree edge, no slot
      for (const EdgeId e : comp.edges) {
        const auto lower = static_cast<std::size_t>(tree.lower_endpoint(e));
        const auto upper = static_cast<std::size_t>(tree.parent[lower]);
        ComponentPlan::Slot& down = want_slots[upper][j];
        down.part = j;
        ++down.expected;
        ComponentPlan::Slot& up = want_slots[lower][j];
        up.part = j;
        up.has_parent = true;
        up.parent_root_depth = tree.depth[static_cast<std::size_t>(comp.root)];
      }
    }
  }

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    ASSERT_EQ(plan.slot_off[i + 1] - plan.slot_off[i], want_slots[i].size())
        << "node " << v;
    std::size_t k = plan.slot_off[i];
    for (const auto& [j, want] : want_slots[i]) {
      const ComponentPlan::Slot& got = plan.slots[k++];
      EXPECT_EQ(got.part, j) << "node " << v;
      EXPECT_EQ(got.expected, want.expected) << "node " << v << " part " << j;
      EXPECT_EQ(got.has_parent, want.has_parent)
          << "node " << v << " part " << j;
      EXPECT_EQ(got.parent_root_depth, want.parent_root_depth)
          << "node " << v << " part " << j;
    }
    std::vector<EdgeId> children = tree.children_edges[i];
    std::sort(children.begin(), children.end());
    EXPECT_EQ(std::vector<EdgeId>(
                  plan.child_edge.begin() +
                      static_cast<std::ptrdiff_t>(plan.child_off[i]),
                  plan.child_edge.begin() +
                      static_cast<std::ptrdiff_t>(plan.child_off[i + 1])),
              children)
        << "node " << v;
  }
}

void expect_representation_correct(const Graph& g, const Partition& p,
                                   std::int32_t threshold) {
  Sim setup(g);
  const Shortcut s = greedy_blocked_shortcut(g, setup.tree, p, threshold);
  const ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, s);
  EXPECT_TRUE(state.plan.has_root_depths);
  expect_plan_matches_components(g, setup.tree, p, s, state.plan);

  // Part members know their block root, and a member has no slot for its
  // part exactly when its component is a singleton.
  const std::size_t no_slot = state.plan.slots.size();
  for (PartId j = 0; j < p.num_parts; ++j) {
    for (const auto& comp : central_components(g, setup.tree, p, s, j)) {
      for (const NodeId v : comp.nodes) {
        if (p.part(v) != j) continue;
        EXPECT_EQ(state.own_block_root[static_cast<std::size_t>(v)],
                  comp.root)
            << "node " << v;
        EXPECT_EQ(state.plan.slot_index(v, j) == no_slot, comp.edges.empty())
            << "node " << v;
      }
    }
  }
}

TEST(Representation, GridRowsPartition) {
  expect_representation_correct(make_grid(8, 8),
                                make_grid_rows_partition(8, 8, 2), 3);
}

TEST(Representation, RandomGraphsAcrossSeedsAndThresholds) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(80, 0.05, seed);
    const auto p = make_random_bfs_partition(g, 9, seed + 3);
    for (const std::int32_t threshold : {1, 4})
      expect_representation_correct(g, p, threshold);
  }
}

TEST(Representation, SingletonsRootThemselves) {
  // Threshold 0: no edges assigned anywhere; every part node is a
  // singleton component rooted at itself.
  const Graph g = make_grid(6, 6);
  Sim setup(g);
  const auto p = make_random_bfs_partition(g, 5, 2);
  Shortcut s;
  s.parts_on_edge.resize(static_cast<std::size_t>(g.num_edges()));
  const ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, s);
  EXPECT_TRUE(state.plan.slots.empty());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NE(p.part(v), kNoPart);
    EXPECT_EQ(state.own_block_root[static_cast<std::size_t>(v)], v);
  }
}

TEST(Representation, UnassignedNodesHaveNoBlock) {
  const Graph g = make_wheel(33);
  Sim setup(g);
  const auto p = make_cycle_arcs_partition(33, 4);
  const Shortcut s = full_ancestor_shortcut(g, setup.tree, p);
  const ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, s);
  const NodeId hub = 32;
  EXPECT_EQ(p.part(hub), kNoPart);
  EXPECT_EQ(state.own_block_root[static_cast<std::size_t>(hub)], kNoNode);
}

}  // namespace
}  // namespace lcs
