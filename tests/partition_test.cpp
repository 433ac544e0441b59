#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/metrics.h"
#include "graph/partition.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {
namespace {

TEST(Partition, MembersGroupsNodes) {
  Partition p;
  p.num_parts = 2;
  p.part_of = {0, 1, 0, kNoPart, 1};
  const auto groups = p.members();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(groups[1], (std::vector<NodeId>{1, 4}));
}

TEST(Partition, ValidateAcceptsConnectedParts) {
  const Graph g = make_grid(4, 4);
  const auto p = make_grid_rows_partition(4, 4, 2);
  EXPECT_NO_THROW(validate_partition(g, p));
}

TEST(Partition, ValidateRejectsDisconnectedPart) {
  const Graph g = make_path(4);
  Partition p;
  p.num_parts = 1;
  p.part_of = {0, kNoPart, 0, kNoPart};  // {0,2} not connected in the path
  EXPECT_THROW(validate_partition(g, p), CheckFailure);
}

TEST(Partition, ValidateRejectsEmptyPart) {
  const Graph g = make_path(3);
  Partition p;
  p.num_parts = 2;
  p.part_of = {0, 0, 0};  // part 1 empty
  EXPECT_THROW(validate_partition(g, p), CheckFailure);
}

TEST(Partition, SingletonAndWholeGraph) {
  const Graph g = make_grid(3, 3);
  const auto singles = make_singleton_partition(9);
  EXPECT_EQ(singles.num_parts, 9);
  validate_partition(g, singles);
  const auto whole = make_whole_graph_partition(9);
  EXPECT_EQ(whole.num_parts, 1);
  validate_partition(g, whole);
}

TEST(Partition, RandomBfsPartitionCoversAndConnects) {
  const Graph g = make_grid(10, 10);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto p = make_random_bfs_partition(g, 7, seed);
    EXPECT_EQ(p.num_parts, 7);
    validate_partition(g, p);
    EXPECT_TRUE(std::none_of(p.part_of.begin(), p.part_of.end(),
                             [](PartId i) { return i == kNoPart; }));
  }
}

TEST(Partition, ForestSplitPartitionConnects) {
  const Graph g = make_erdos_renyi(80, 0.05, 1);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto p = make_forest_split_partition(g, 9, seed);
    EXPECT_EQ(p.num_parts, 9);
    validate_partition(g, p);
  }
}

TEST(Partition, GridRowsPartition) {
  const auto p = make_grid_rows_partition(6, 9, 3);
  EXPECT_EQ(p.num_parts, 3);
  validate_partition(make_grid(6, 9), p);
  EXPECT_EQ(p.part(0), 0);
  EXPECT_EQ(p.part(6 * 8), 2);  // last row
}

TEST(Partition, SnakePartitionConnectedAndBalanced) {
  const NodeId w = 16, h = 16;
  const Graph g = make_grid(w, h);
  const auto p = make_snake_partition(w, h, 4);
  EXPECT_EQ(p.num_parts, 4);
  validate_partition(g, p);
  const auto groups = p.members();
  for (const auto& members : groups) EXPECT_EQ(members.size(), 64u);
}

TEST(Partition, WheelArcsHaveDiameterFarExceedingGraphDiameter) {
  // The motivating example: D = 2 but each arc part has induced diameter
  // ~ n/k. Communication restricted to a part is ~n/k times slower than the
  // graph allows — this is the gap shortcuts close.
  const NodeId n = 101;
  const Graph g = make_wheel(n);
  EXPECT_EQ(diameter_exact(g), 2);
  const auto p = make_cycle_arcs_partition(n, 4);
  validate_partition(g, p);
  EXPECT_EQ(p.num_parts, 4);
  EXPECT_GE(max_part_diameter(g, p), 24);
  // Hub is unassigned.
  EXPECT_EQ(p.part(n - 1), kNoPart);
}

TEST(Partition, LowerBoundPartitionPathsAreParts) {
  const NodeId paths = 6, len = 6;
  const Graph g = make_lower_bound_graph(paths, len);
  const auto p = make_lower_bound_partition(paths, len, g.num_nodes());
  EXPECT_EQ(p.num_parts, paths);
  validate_partition(g, p);
  // Tree nodes stay unassigned.
  const auto assigned = util::checked_cast<NodeId>(
      std::count_if(p.part_of.begin(), p.part_of.end(),
                    [](PartId i) { return i != kNoPart; }));
  EXPECT_EQ(assigned, paths * len);
}

TEST(Partition, MaxPartDiameterIsTheLargestPartDiameter) {
  const Graph g = make_grid(14, 14);
  const Partition p = make_random_bfs_partition(g, 40, 3);
  validate_partition(g, p);
  std::int32_t largest = 0;
  for (PartId i = 0; i < p.num_parts; ++i)
    largest = std::max(largest, part_diameter_exact(g, p, i));
  EXPECT_GT(largest, 0);
  EXPECT_EQ(max_part_diameter(g, p), largest);
}

TEST(Partition, MaxPartDiameterRejectsAnEmptyPart) {
  const Graph g = make_path(6);
  Partition p;
  p.num_parts = 3;
  p.part_of = {0, 0, 0, 2, 2, 2};  // part 1 has no members
  for (const bool all_parts : {false, true}) {
    try {
      (void)(all_parts ? max_part_diameter(g, p)
                       : part_diameter_exact(g, p, 1));
      FAIL() << "an empty part must throw";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("part has no members"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace lcs
