#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/worker_pool.h"

namespace lcs {
namespace {

/// Byte-identical adjacency and weights: same node/edge counts, same edge
/// records (id order included), same CSR neighbor lists.
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u) << "edge " << e;
    EXPECT_EQ(a.edge(e).v, b.edge(e).v) << "edge " << e;
    EXPECT_EQ(a.edge(e).w, b.edge(e).w) << "edge " << e;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "node " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].node, nb[i].node) << "node " << v << " slot " << i;
      EXPECT_EQ(na[i].edge, nb[i].edge) << "node " << v << " slot " << i;
    }
  }
}

/// One representative instance of every generator family.
std::vector<std::pair<std::string, Graph>> all_families() {
  std::vector<std::pair<std::string, Graph>> fams;
  fams.emplace_back("grid", make_grid(7, 5));
  fams.emplace_back("torus", make_torus(5, 4));
  fams.emplace_back("genus", make_genus_grid(6, 6, 4, 11));
  fams.emplace_back("path", make_path(17));
  fams.emplace_back("cycle", make_cycle(12));
  fams.emplace_back("tree", make_random_tree(40, 3));
  fams.emplace_back("maze", make_random_maze(8, 8, 0.4, 5));
  fams.emplace_back("er", make_erdos_renyi(60, 0.06, 7));
  fams.emplace_back("wheel", make_wheel(19));
  fams.emplace_back("lb", make_lower_bound_graph(5, 6));
  fams.emplace_back("rmat", make_rmat(6, 160, 0.57, 0.19, 0.19, 9));
  fams.emplace_back("ba", make_barabasi_albert(50, 3, 13));
  fams.emplace_back("rreg", make_random_regular(30, 4, 15));
  fams.emplace_back("ktree", make_ktree(40, 3, 17));
  fams.emplace_back("weighted", with_random_weights(make_grid(5, 5), 1,
                                                    1000000007ULL, 23));
  return fams;
}

TEST(BinaryCache, RoundTripsEveryFamily) {
  for (const auto& [name, g] : all_families()) {
    SCOPED_TRACE(name);
    std::stringstream buf;
    write_binary(g, buf);
    const Graph back = read_binary(buf);
    expect_same_graph(g, back);
  }
}

TEST(BinaryCache, RoundTripsThroughFiles) {
  const std::string path = testing::TempDir() + "lcs_io_roundtrip.bin";
  const Graph g = make_genus_grid(9, 9, 3, 2);
  save_binary(g, path);
  expect_same_graph(g, load_binary(path));
  // Extension dispatch picks the binary reader for .bin.
  expect_same_graph(g, load_graph(path));
  std::remove(path.c_str());
}

TEST(BinaryCache, RejectsBadMagic) {
  std::stringstream buf;
  write_binary(make_grid(3, 3), buf);
  std::string bytes = buf.str();
  bytes[0] = 'X';
  std::stringstream corrupted(bytes);
  EXPECT_THROW(read_binary(corrupted), CheckFailure);
}

TEST(BinaryCache, RejectsUnknownVersion) {
  std::stringstream buf;
  write_binary(make_grid(3, 3), buf);
  std::string bytes = buf.str();
  bytes[4] = util::truncate_cast<char>(kBinaryGraphVersion + 1);  // little-endian LSB
  std::stringstream corrupted(bytes);
  EXPECT_THROW(read_binary(corrupted), CheckFailure);
}

TEST(BinaryCache, RejectsTruncation) {
  std::stringstream buf;
  write_binary(make_grid(4, 4), buf);
  const std::string bytes = buf.str();
  // Chop in the header and in the edge payload.
  for (const std::size_t keep : {std::size_t{10}, bytes.size() - 5}) {
    std::stringstream truncated(bytes.substr(0, keep));
    EXPECT_THROW(read_binary(truncated), CheckFailure) << "keep=" << keep;
  }
}

TEST(BinaryCache, RejectsTruncationAtEverySection) {
  // Every strict prefix must be diagnosed, whichever section the EOF lands
  // in: magic, version, reserved, node count, edge count, or any byte of
  // the edge payload.
  std::stringstream buf;
  write_binary(make_grid(4, 4), buf);
  const std::string bytes = buf.str();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::stringstream truncated(bytes.substr(0, keep));
    EXPECT_THROW(read_binary(truncated), CheckFailure) << "keep=" << keep;
  }
  // The full buffer still parses — the loop above really was strict prefixes.
  std::stringstream whole(bytes);
  expect_same_graph(make_grid(4, 4), read_binary(whole));
}

TEST(BinaryCache, TruncationDiagnosisNamesTheEdge) {
  std::stringstream buf;
  write_binary(make_path(5), buf);  // 4 edges, 16 bytes each after the header
  const std::string bytes = buf.str();
  // EOF mid-way through edge 2's record (header is 28 bytes).
  std::stringstream truncated(bytes.substr(0, 28 + 2 * 16 + 7));
  try {
    (void)read_binary(truncated);
    FAIL() << "truncated body parsed";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("edge 2 of 4"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryCache, RejectsOutOfRangeEndpoint) {
  std::stringstream buf;
  write_binary(make_path(3), buf);
  std::string bytes = buf.str();
  // Header is 4 magic + 4 version + 4 reserved + 8 n + 8 m = 28 bytes;
  // first edge's u is next. Point it past n.
  bytes[28] = 100;
  std::stringstream corrupted(bytes);
  EXPECT_THROW(read_binary(corrupted), CheckFailure);
}

// A header's node count is refused once the payload has proven m, if no
// connected graph has that many nodes on m edges: a 28-byte file declaring
// 2^20 nodes and no edges used to build a graph of a million isolated
// nodes (and one declaring 2^31 - 1, `cli_errors_test.sh`'s
// `forged_node_count`, to allocate per-node arrays for all of them). The
// diagnosis names both counts.
TEST(BinaryCache, RejectsMoreNodesThanEdgesCanConnect) {
  const auto expect_refused = [](const std::string& bytes,
                                 const std::string& counts) {
    std::stringstream in(bytes);
    try {
      (void)read_binary_bundle(in);
      FAIL() << "parsed " << counts;
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(counts), std::string::npos)
          << e.what();
    }
  };
  std::string forged("LCSG\x01\0\0\0\0\0\0\0", 12);
  forged += std::string("\0\0\x10\0\0\0\0\0", 8);
  forged += std::string(8, '\0');
  ASSERT_EQ(forged.size(), 28u);
  expect_refused(forged, "declares 1048576 nodes but only 0 edges");

  // One isolated node too many; a path has exactly n - 1 edges.
  std::stringstream isolated;
  write_binary(Graph(4, {{0, 1}, {1, 2}}), isolated);
  expect_refused(isolated.str(), "declares 4 nodes but only 2 edges");
  std::stringstream path;
  write_binary(make_path(4), path);
  expect_same_graph(make_path(4), read_binary(path));
  std::stringstream one;
  write_binary(make_path(1), one);
  expect_same_graph(make_path(1), read_binary(one));
}

TEST(BinaryCache, BundleSectionsRoundTrip) {
  const Graph g = make_grid(6, 4);
  Partition p;
  p.num_parts = 3;
  p.part_of.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) p.part_of[v] = v % 3;
  const BundleMeta meta{"grid:w=6,h=4", "grid"};

  std::stringstream buf;
  write_binary_bundle(
      g, {{kSectionPartition, encode_partition(p)},
          {kSectionMeta, encode_bundle_meta(meta)}},
      buf);
  const GraphBundle bundle = read_binary_bundle(buf);
  expect_same_graph(g, bundle.graph);
  ASSERT_NE(bundle.find(kSectionPartition), nullptr);
  ASSERT_NE(bundle.find(kSectionMeta), nullptr);
  const Partition back =
      decode_partition(bundle.find(kSectionPartition)->bytes, g.num_nodes());
  EXPECT_EQ(back.num_parts, p.num_parts);
  EXPECT_EQ(back.part_of, p.part_of);
  const BundleMeta meta_back =
      decode_bundle_meta(bundle.find(kSectionMeta)->bytes);
  EXPECT_EQ(meta_back.spec, meta.spec);
  EXPECT_EQ(meta_back.family, meta.family);
}

TEST(BinaryCache, UnknownSectionTagsAreSkippedNotFatal) {
  // Forward compatibility within a version: a file written by a newer
  // build with an extra section still loads; the section is preserved by
  // the bundle reader and ignored by the graph-only reader.
  const Graph g = make_path(6);
  std::stringstream buf;
  write_binary_bundle(g, {{0x58585858, "opaque-bytes"}}, buf);
  const std::string bytes = buf.str();
  {
    std::stringstream in(bytes);
    expect_same_graph(g, read_binary(in));
  }
  std::stringstream in(bytes);
  const GraphBundle bundle = read_binary_bundle(in);
  ASSERT_NE(bundle.find(0x58585858), nullptr);
  EXPECT_EQ(bundle.find(0x58585858)->bytes, "opaque-bytes");
}

TEST(BinaryCache, Version1FilesStillLoad) {
  // A v1 file is exactly a v2 file minus the section block: rewrite the
  // version field and drop the trailing u32 section_count (0).
  const Graph g = make_grid(5, 3);
  std::stringstream buf;
  write_binary(g, buf);
  std::string bytes = buf.str();
  bytes[4] = 1;
  bytes.resize(bytes.size() - 4);
  std::stringstream v1(bytes);
  expect_same_graph(g, read_binary(v1));
  // And the bundle reader reports no sections for it.
  std::stringstream v1_again(bytes);
  EXPECT_TRUE(read_binary_bundle(v1_again).sections.empty());
}

TEST(BinaryCache, SectionBlockTruncationIsDiagnosed) {
  const Graph g = make_path(4);
  std::stringstream buf;
  write_binary_bundle(g, {{kSectionMeta, encode_bundle_meta({"s", "f"})}},
                      buf);
  const std::string bytes = buf.str();
  // Every strict prefix that cuts into the section block must throw.
  const std::size_t graph_only = [&] {
    std::stringstream plain;
    write_binary_bundle(g, {}, plain);
    return plain.str().size() - 4;  // minus the empty section count
  }();
  for (std::size_t keep = graph_only; keep < bytes.size(); ++keep) {
    std::stringstream truncated(bytes.substr(0, keep));
    EXPECT_THROW(read_binary_bundle(truncated), CheckFailure)
        << "keep=" << keep;
  }
}

TEST(BinaryCache, PartitionCodecValidates) {
  Partition p;
  p.num_parts = 2;
  p.part_of = {0, 1, 1, kNoPart};
  const std::string bytes = encode_partition(p);
  const Partition back = decode_partition(bytes, 4);
  EXPECT_EQ(back.num_parts, 2);
  EXPECT_EQ(back.part_of, p.part_of);
  // Node-count mismatch (stale cache for a different graph) is diagnosed.
  EXPECT_THROW(decode_partition(bytes, 5), CheckFailure);
  // Truncation is diagnosed.
  EXPECT_THROW(decode_partition(std::string_view(bytes).substr(
                   0, bytes.size() - 2), 4),
               CheckFailure);
}

/// A fresh empty directory under the test temp dir.
std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The names of the entries in `dir`, sorted.
std::vector<std::string> dir_entries(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

TEST(BinaryCache, AtomicSaveLeavesNoTempFileBehind) {
  const std::filesystem::path dir = fresh_dir("lcs_io_atomic");
  const std::string path = (dir / "cache.bin").string();
  const Graph g = make_grid(4, 4);
  save_binary(g, path);
  // The writer's temp file (`cache.bin.tmp.<pid>.<n>`) was renamed away.
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"cache.bin"});
  expect_same_graph(g, load_binary(path));
  // Overwriting an existing cache is atomic too.
  save_binary(make_grid(5, 5), path);
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"cache.bin"});
  expect_same_graph(make_grid(5, 5), load_binary(path));
  std::filesystem::remove_all(dir);
}

// Two lcs_serve workers that miss the same scenario save the same path at
// once. Each writer has its own temp file, so every save lands whole and
// the last rename wins. The bundle is over 1 MB so the writes overlap.
TEST(BinaryCache, ConcurrentSavesOfOnePathAllLand) {
  const Graph g = make_grid(200, 200);
  const std::vector<BundleSection> sections = {
      {kSectionPartition,
       encode_partition(make_random_bfs_partition(g, 16, 1))}};
  WorkerPool pool(4);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::filesystem::path dir = fresh_dir("lcs_io_concurrent_save");
    const std::string path = (dir / "bundle.lcsg").string();
    std::vector<std::string> errors(4);
    pool.run([&](int w) {
      try {
        save_binary_bundle(g, sections, path);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(w)] = e.what();
      }
    });
    EXPECT_EQ(errors, std::vector<std::string>(4)) << "a save threw";
    EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"bundle.lcsg"});
    const GraphBundle back = load_binary_bundle(path);
    expect_same_graph(g, back.graph);
    ASSERT_EQ(back.sections.size(), 1u);
    EXPECT_EQ(back.sections[0].tag, kSectionPartition);
    EXPECT_EQ(back.sections[0].bytes, sections[0].bytes);
    std::filesystem::remove_all(dir);
  }
}

TEST(EdgeList, ParsesWeightsCommentsAndDirective) {
  std::stringstream in(
      "# comment line\n"
      "nodes 5\n"
      "0 1 7\n"
      "1 2\n"
      "\n"
      "2 3 9  # trailing comment\n"
      "0 4\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.edge(0).w, 7u);
  EXPECT_EQ(g.edge(1).w, 1u);
  EXPECT_EQ(g.edge(2).w, 9u);
}

TEST(EdgeList, InfersNodeCountFromMaxId) {
  std::stringstream in("0 3\n3 1\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 4);
}

TEST(EdgeList, DiagnosesMalformedLines) {
  {
    std::stringstream in("0 1 2 3\n");
    EXPECT_THROW(read_edge_list(in), CheckFailure);
  }
  {
    std::stringstream in("0 x\n");
    EXPECT_THROW(read_edge_list(in), CheckFailure);
  }
  {
    std::stringstream in("-1 2\n");
    EXPECT_THROW(read_edge_list(in), CheckFailure);
  }
}

TEST(Dimacs, ParsesAndCollapsesSymmetricDuplicates) {
  std::stringstream in(
      "c a DIMACS shortest-path style file\n"
      "p sp 4 5\n"
      "a 1 2 10\n"
      "a 2 1 99\n"  // symmetric duplicate: first weight wins
      "a 2 3 20\n"
      "e 3 4\n"
      "a 1 4 5\n");
  const Graph g = read_dimacs(in);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.edge(0).u, 0);
  EXPECT_EQ(g.edge(0).v, 1);
  EXPECT_EQ(g.edge(0).w, 10u);
  EXPECT_EQ(g.edge(1).w, 20u);
  EXPECT_EQ(g.edge(2).w, 1u);   // 'e' line: unit weight
  EXPECT_EQ(g.edge(3).w, 5u);
}

TEST(Dimacs, DiagnosesStructuralErrors) {
  {
    std::stringstream in("a 1 2\n");  // edge before problem line
    EXPECT_THROW(read_dimacs(in), CheckFailure);
  }
  {
    std::stringstream in("p sp 3 1\na 1 4\n");  // id out of range
    EXPECT_THROW(read_dimacs(in), CheckFailure);
  }
  {
    std::stringstream in("p sp 3 1\nz 1 2\n");  // unknown line type
    EXPECT_THROW(read_dimacs(in), CheckFailure);
  }
  {
    std::stringstream in("c only comments\n");  // no problem line
    EXPECT_THROW(read_dimacs(in), CheckFailure);
  }
}

}  // namespace
}  // namespace lcs
