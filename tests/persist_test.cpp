#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "scenario/scenario.h"
#include "shortcut/persist.h"
#include "shortcut/shortcut.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {
namespace {

/// A small but non-trivial record: real scenario, real BFS tree, and a
/// hand-placed (valid) shortcut with part lists on a few tree edges.
ShortcutRunRecord sample_record(const scenario::Scenario& sc) {
  ShortcutRunRecord rec;
  rec.spec_hash = 11;
  rec.partition_hash = 22;
  rec.seed = 33;
  rec.backend = "hiz16";
  rec.tree = reference_bfs_tree(sc.graph, 0);
  rec.shortcut.parts_on_edge.resize(sc.graph.num_edges());
  int placed = 0;
  for (EdgeId e = 0; e < sc.graph.num_edges() && placed < 3; ++e) {
    if (!rec.tree.is_tree_edge(e)) continue;
    const PartId other =
        util::checked_cast<PartId>(1 + placed % (sc.partition.num_parts - 1));
    rec.shortcut.parts_on_edge[e] = {0, other};
    ++placed;
  }
  validate_shortcut(sc.graph, rec.tree, sc.partition, rec.shortcut);
  rec.stats = {7, 2, 4, 8, 12345};
  rec.setup_rounds = 10;
  rec.setup_messages = 20;
  rec.algo_rounds = 30;
  rec.algo_messages = 40;
  rec.backend_stats = {{"width", 3}, {"steiner_edges", 17}};
  return rec;
}

void expect_same_record(const ShortcutRunRecord& a,
                        const ShortcutRunRecord& b) {
  EXPECT_EQ(a.spec_hash, b.spec_hash);
  EXPECT_EQ(a.partition_hash, b.partition_hash);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.tree.root, b.tree.root);
  EXPECT_EQ(a.tree.parent_edge, b.tree.parent_edge);
  EXPECT_EQ(a.tree.parent, b.tree.parent);
  EXPECT_EQ(a.tree.depth, b.tree.depth);
  EXPECT_EQ(a.tree.height, b.tree.height);
  EXPECT_EQ(a.shortcut.parts_on_edge, b.shortcut.parts_on_edge);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.trials, b.stats.trials);
  EXPECT_EQ(a.stats.used_c, b.stats.used_c);
  EXPECT_EQ(a.stats.used_b, b.stats.used_b);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.setup_rounds, b.setup_rounds);
  EXPECT_EQ(a.setup_messages, b.setup_messages);
  EXPECT_EQ(a.algo_rounds, b.algo_rounds);
  EXPECT_EQ(a.algo_messages, b.algo_messages);
  EXPECT_EQ(a.backend_stats, b.backend_stats);
}

TEST(TreeFromParentEdges, RebuildsTheReferenceTree) {
  const scenario::Scenario sc = scenario::make_scenario("grid:w=7,h=5");
  const SpanningTree original = reference_bfs_tree(sc.graph, 0);
  const SpanningTree rebuilt =
      tree_from_parent_edges(sc.graph, original.root, original.parent_edge);
  validate_spanning_tree(sc.graph, rebuilt);
  EXPECT_EQ(rebuilt.root, original.root);
  EXPECT_EQ(rebuilt.parent, original.parent);
  EXPECT_EQ(rebuilt.depth, original.depth);
  EXPECT_EQ(rebuilt.height, original.height);
  for (EdgeId e = 0; e < sc.graph.num_edges(); ++e)
    EXPECT_EQ(rebuilt.is_tree_edge(e), original.is_tree_edge(e)) << e;
  // Children lists are rebuilt sorted by edge id — deterministic without
  // recording discovery order.
  for (NodeId v = 0; v < sc.graph.num_nodes(); ++v) {
    const auto& kids = rebuilt.children_edges[v];
    EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end())) << "node " << v;
  }
}

TEST(TreeFromParentEdges, DiagnosesStructuralViolations) {
  const scenario::Scenario sc = scenario::make_scenario("path:n=3");
  const Graph& g = sc.graph;  // edges: 0 = (0,1), 1 = (1,2)
  // Root out of range.
  EXPECT_THROW(tree_from_parent_edges(g, 99, {kNoEdge, 0, 1}), CheckFailure);
  // Root must have no parent edge.
  EXPECT_THROW(tree_from_parent_edges(g, 0, {0, 0, 1}), CheckFailure);
  // Non-root node without a parent edge (disconnected).
  EXPECT_THROW(tree_from_parent_edges(g, 0, {kNoEdge, 0, kNoEdge}),
               CheckFailure);
  // Parent edge not incident to the node.
  EXPECT_THROW(tree_from_parent_edges(g, 0, {kNoEdge, 0, 0}), CheckFailure);
  // 1 and 2 parent each other through edge 1: a cycle unreachable from the
  // root.
  EXPECT_THROW(tree_from_parent_edges(g, 0, {kNoEdge, 1, 1}), CheckFailure);
  // Wrong array length.
  EXPECT_THROW(tree_from_parent_edges(g, 0, {kNoEdge, 0}), CheckFailure);
}

TEST(ShortcutRecord, EncodeDecodeRoundTrips) {
  const scenario::Scenario sc = scenario::make_scenario("grid:w=6,h=4");
  const ShortcutRunRecord rec = sample_record(sc);
  const std::string bytes = encode_shortcut_record(rec);
  const ShortcutRunRecord back =
      decode_shortcut_record(bytes, sc.graph, rec.spec_hash,
                             rec.partition_hash, rec.backend);
  expect_same_record(rec, back);
  // The rebuilt tree is fully usable, not just field-equal.
  validate_spanning_tree(sc.graph, back.tree);
  validate_shortcut(sc.graph, back.tree, sc.partition, back.shortcut);
}

TEST(ShortcutRecord, KeyMismatchIsDiagnosedNotServed) {
  const scenario::Scenario sc = scenario::make_scenario("grid:w=5,h=5");
  const ShortcutRunRecord rec = sample_record(sc);
  const std::string bytes = encode_shortcut_record(rec);
  EXPECT_THROW(decode_shortcut_record(bytes, sc.graph, rec.spec_hash + 1,
                                      rec.partition_hash, rec.backend),
               CheckFailure);
  EXPECT_THROW(decode_shortcut_record(bytes, sc.graph, rec.spec_hash,
                                      rec.partition_hash + 1, rec.backend),
               CheckFailure);
  // A graph of a different size is a stale-cache symptom, same treatment.
  const scenario::Scenario other = scenario::make_scenario("grid:w=4,h=4");
  EXPECT_THROW(decode_shortcut_record(bytes, other.graph, rec.spec_hash,
                                      rec.partition_hash, rec.backend),
               CheckFailure);
}

TEST(ShortcutRecord, BackendMismatchIsDiagnosedNotServed) {
  // A record cached under one backend must never answer a request naming
  // another — the congestion numbers would be the wrong construction's.
  const scenario::Scenario sc = scenario::make_scenario("grid:w=5,h=5");
  const ShortcutRunRecord rec = sample_record(sc);
  const std::string bytes = encode_shortcut_record(rec);
  try {
    (void)decode_shortcut_record(bytes, sc.graph, rec.spec_hash,
                                 rec.partition_hash, "kkoi19");
    FAIL() << "backend mismatch served";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("backend mismatch"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("kkoi19"), std::string::npos)
        << e.what();
  }
}

TEST(ShortcutRecord, EveryTruncationIsDiagnosed) {
  const scenario::Scenario sc = scenario::make_scenario("grid:w=4,h=3");
  const ShortcutRunRecord rec = sample_record(sc);
  const std::string bytes = encode_shortcut_record(rec);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW(
        decode_shortcut_record(bytes.substr(0, keep), sc.graph, rec.spec_hash,
                               rec.partition_hash, rec.backend),
        CheckFailure)
        << "keep=" << keep;
  }
  // Trailing garbage after a complete record is rejected too.
  EXPECT_THROW(decode_shortcut_record(bytes + "x", sc.graph, rec.spec_hash,
                                      rec.partition_hash, rec.backend),
               CheckFailure);
}

TEST(ShortcutRecord, FileRoundTripAndVersionRejection) {
  const scenario::Scenario sc = scenario::make_scenario("grid:w=5,h=4");
  const ShortcutRunRecord rec = sample_record(sc);
  const std::string path = testing::TempDir() + "lcs_persist_record.lcss";
  save_shortcut_record(rec, path);
  // The atomic write left no temp file (`<path>.tmp.<pid>.<n>`) behind.
  for (const auto& entry :
       std::filesystem::directory_iterator(testing::TempDir()))
    EXPECT_NE(entry.path().filename().string().rfind(
                  "lcs_persist_record.lcss.tmp", 0),
              0u)
        << entry.path();
  expect_same_record(rec, load_shortcut_record(path, sc.graph, rec.spec_hash,
                                               rec.partition_hash,
                                               rec.backend));

  // Other format versions are rejected by name, never guessed at: a future
  // version, a stale v1 file (pre-backend layout: parsing it as v3 would
  // misread the tree root as string length) and a v2 file (its charge list
  // would be misread as the backend stat count).
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (const std::uint32_t bad_version :
       {kShortcutRecordVersion + 1, 1u, 2u}) {
    bytes[4] = util::truncate_cast<char>(bad_version);
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      (void)load_shortcut_record(path, sc.graph, rec.spec_hash,
                                 rec.partition_hash, rec.backend);
      FAIL() << "version " << bad_version << " parsed";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported shortcut record "
                                           "version " +
                                           std::to_string(bad_version)),
                std::string::npos)
          << e.what();
    }
  }
  bytes[0] = 'X';  // and bad magic
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_shortcut_record(path, sc.graph, rec.spec_hash,
                                    rec.partition_hash, rec.backend),
               CheckFailure);
  std::remove(path.c_str());
}

TEST(ShortcutRecord, ForgedCountsAreDiagnosedBeforeAllocation) {
  // A count read from the file sizes a reservation only once the bytes
  // left can hold it; a forged one is a structured error, never bad_alloc.
  const scenario::Scenario sc = scenario::make_scenario("grid:w=4,h=3");
  const ShortcutRunRecord rec = sample_record(sc);
  const std::string bytes = encode_shortcut_record(rec);
  const auto decode = [&](const std::string& forged) {
    (void)decode_shortcut_record(forged, sc.graph, rec.spec_hash,
                                 rec.partition_hash, rec.backend);
  };
  const auto forge_u32 = [&](std::size_t at) {
    std::string forged = bytes;
    for (std::size_t k = 0; k < 4; ++k) forged[at + k] = '\xff';
    return forged;
  };

  // The first listed edge's part count sits after the fixed header, the
  // tree, the edge count, the nonempty count and that edge's id.
  const std::size_t first_part_count =
      3 * 8 + 8 + rec.backend.size() + 4 + 8 +
      4 * rec.tree.parent_edge.size() + 8 + 4 + 4;
  // The backend stat count precedes the stats, each a length-prefixed
  // label and an i64.
  std::size_t stats_bytes = 0;
  for (const auto& [label, value] : rec.backend_stats)
    stats_bytes += 8 + label.size() + 8;
  const std::size_t stat_count = bytes.size() - stats_bytes - 4;

  for (const auto& [what, at] :
       {std::pair<std::string, std::size_t>{"part count", first_part_count},
        std::pair<std::string, std::size_t>{"backend stat count",
                                            stat_count}}) {
    SCOPED_TRACE(what);
    // The forged field really is the count: its bytes decode as 2.
    ASSERT_EQ(bytes.substr(at, 4), std::string("\x02\0\0\0", 4));
    try {
      decode(forge_u32(at));
      FAIL() << "forged " << what << " decoded";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(what + " 4294967295 exceeds"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace lcs
