#include "shortcut/persist.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "tree/spanning_tree.h"
#include "util/bytes.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

namespace {

constexpr char kRecordMagic[4] = {'L', 'C', 'S', 'S'};

}  // namespace

SpanningTree tree_from_parent_edges(const Graph& g, NodeId root,
                                    std::vector<EdgeId> parent_edge) {
  const NodeId n = g.num_nodes();
  LCS_CHECK(root >= 0 && root < n, "shortcut record root out of range");
  LCS_CHECK(parent_edge.size() == static_cast<std::size_t>(n),
            "shortcut record parent-edge count mismatch");

  SpanningTree tree;
  tree.root = root;
  tree.parent_edge = std::move(parent_edge);
  tree.parent.assign(static_cast<std::size_t>(n), kNoNode);
  tree.depth.assign(static_cast<std::size_t>(n), -1);
  tree.children_edges.resize(static_cast<std::size_t>(n));

  LCS_CHECK(tree.parent_edge[static_cast<std::size_t>(root)] == kNoEdge,
            "shortcut record root has a parent edge");
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    const EdgeId pe = tree.parent_edge[static_cast<std::size_t>(v)];
    LCS_CHECK(pe >= 0 && pe < g.num_edges(),
              "shortcut record parent edge out of range at node " +
                  std::to_string(v));
    const auto& ed = g.edge(pe);
    LCS_CHECK(ed.u == v || ed.v == v,
              "shortcut record parent edge not incident to node " +
                  std::to_string(v));
    const NodeId parent = g.other_endpoint(pe, v);
    tree.parent[static_cast<std::size_t>(v)] = parent;
    tree.children_edges[static_cast<std::size_t>(parent)].push_back(pe);
  }
  // Children in edge-id order: the construction order is not persisted and
  // nothing rendered from a record depends on it, so pick the canonical one.
  for (auto& edges : tree.children_edges)
    std::sort(edges.begin(), edges.end());

  // Depths by walking down from the root; a cycle or disconnection in the
  // parent edges leaves some depth unset and is diagnosed below.
  std::vector<NodeId> frontier{root};
  tree.depth[static_cast<std::size_t>(root)] = 0;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    for (const NodeId v : frontier) {
      for (const EdgeId ce : tree.children_edges[static_cast<std::size_t>(v)]) {
        const NodeId c = g.other_endpoint(ce, v);
        LCS_CHECK(tree.depth[static_cast<std::size_t>(c)] < 0,
                  "shortcut record parent edges contain a cycle");
        tree.depth[static_cast<std::size_t>(c)] =
            tree.depth[static_cast<std::size_t>(v)] + 1;
        next.push_back(c);
        ++visited;
      }
    }
    frontier = std::move(next);
  }
  LCS_CHECK(visited == static_cast<std::size_t>(n),
            "shortcut record parent edges do not span the graph");
  tree.finalize(g);
  return tree;
}

std::string encode_shortcut_record(const ShortcutRunRecord& record) {
  ByteWriter w;
  w.put_u64(record.spec_hash);
  w.put_u64(record.partition_hash);
  w.put_u64(record.seed);
  w.put_string(record.backend);

  w.put_i32(record.tree.root);
  w.put_u64(record.tree.parent_edge.size());
  for (const EdgeId pe : record.tree.parent_edge) w.put_i32(pe);

  w.put_u64(record.shortcut.parts_on_edge.size());
  std::uint32_t nonempty = 0;
  for (const auto& parts : record.shortcut.parts_on_edge)
    if (!parts.empty()) ++nonempty;
  w.put_u32(nonempty);
  for (std::size_t e = 0; e < record.shortcut.parts_on_edge.size(); ++e) {
    const auto& parts = record.shortcut.parts_on_edge[e];
    if (parts.empty()) continue;
    w.put_i32(util::checked_cast<EdgeId>(e));
    w.put_u32(util::checked_cast<std::uint32_t>(parts.size()));
    for (const PartId p : parts) w.put_i32(p);
  }

  w.put_i32(record.stats.iterations);
  w.put_i32(record.stats.trials);
  w.put_i32(record.stats.used_c);
  w.put_i32(record.stats.used_b);
  w.put_i64(record.stats.rounds);

  w.put_i64(record.setup_rounds);
  w.put_i64(record.setup_messages);
  w.put_i64(record.algo_rounds);
  w.put_i64(record.algo_messages);

  w.put_u32(util::checked_cast<std::uint32_t>(record.backend_stats.size()));
  for (const auto& [label, value] : record.backend_stats) {
    w.put_string(label);
    w.put_i64(value);
  }
  return w.take();
}

ShortcutRunRecord decode_shortcut_record(std::string_view bytes,
                                         const Graph& g,
                                         std::uint64_t expect_spec_hash,
                                         std::uint64_t expect_partition_hash,
                                         std::string_view expect_backend) {
  ByteReader r(bytes, "shortcut record");
  ShortcutRunRecord record;
  record.spec_hash = r.get_u64("spec hash");
  record.partition_hash = r.get_u64("partition hash");
  record.seed = r.get_u64("seed");
  record.backend = std::string(r.get_string("backend"));
  LCS_CHECK(record.spec_hash == expect_spec_hash &&
                record.partition_hash == expect_partition_hash,
            "shortcut record key mismatch (cached for a different scenario "
            "or partition)");
  LCS_CHECK(record.backend == expect_backend,
            "shortcut record backend mismatch (cached '" + record.backend +
                "', requested '" + std::string(expect_backend) + "')");

  const NodeId root = r.get_i32("tree root");
  const std::uint64_t n = r.get_u64("tree node count");
  LCS_CHECK(n == static_cast<std::uint64_t>(g.num_nodes()),
            "shortcut record is for " + std::to_string(n) +
                " nodes, graph has " + std::to_string(g.num_nodes()));
  std::vector<EdgeId> parent_edge;
  parent_edge.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t v = 0; v < n; ++v)
    parent_edge.push_back(r.get_i32("parent edge"));
  record.tree = tree_from_parent_edges(g, root, std::move(parent_edge));

  const std::uint64_t m = r.get_u64("edge count");
  LCS_CHECK(m == static_cast<std::uint64_t>(g.num_edges()),
            "shortcut record is for " + std::to_string(m) +
                " edges, graph has " + std::to_string(g.num_edges()));
  record.shortcut.parts_on_edge.assign(static_cast<std::size_t>(m), {});
  const std::uint32_t nonempty = r.get_u32("nonempty edge count");
  for (std::uint32_t i = 0; i < nonempty; ++i) {
    const EdgeId e = r.get_i32("shortcut edge id");
    LCS_CHECK(e >= 0 && static_cast<std::uint64_t>(e) < m,
              "shortcut record edge id out of range");
    auto& parts = record.shortcut.parts_on_edge[static_cast<std::size_t>(e)];
    LCS_CHECK(parts.empty(), "shortcut record repeats edge " + std::to_string(e));
    const std::uint32_t count = r.get_u32("part count");
    LCS_CHECK(count >= 1, "shortcut record lists edge with no parts");
    parts.reserve(count);
    for (std::uint32_t j = 0; j < count; ++j) {
      const PartId p = r.get_i32("part id");
      LCS_CHECK(parts.empty() || parts.back() < p,
                "shortcut record part list not strictly increasing on edge " +
                    std::to_string(e));
      parts.push_back(p);
    }
  }

  record.stats.iterations = r.get_i32("iterations");
  record.stats.trials = r.get_i32("trials");
  record.stats.used_c = r.get_i32("used_c");
  record.stats.used_b = r.get_i32("used_b");
  record.stats.rounds = r.get_i64("stats rounds");

  record.setup_rounds = r.get_i64("setup rounds");
  record.setup_messages = r.get_i64("setup messages");
  record.algo_rounds = r.get_i64("algorithm rounds");
  record.algo_messages = r.get_i64("algorithm messages");

  const std::uint32_t stat_count = r.get_u32("backend stat count");
  record.backend_stats.reserve(stat_count);
  for (std::uint32_t i = 0; i < stat_count; ++i) {
    std::string label(r.get_string("backend stat label"));
    const std::int64_t value = r.get_i64("backend stat value");
    record.backend_stats.emplace_back(std::move(label), value);
  }
  r.expect_done();
  return record;
}

void save_shortcut_record(const ShortcutRunRecord& record,
                          const std::string& path) {
  ByteWriter header;
  header.put_u32(kShortcutRecordVersion);
  std::string bytes(kRecordMagic, 4);
  bytes += header.bytes();
  bytes += encode_shortcut_record(record);
  save_bytes_atomic(bytes, path);
}

ShortcutRunRecord load_shortcut_record(const std::string& path, const Graph& g,
                                       std::uint64_t expect_spec_hash,
                                       std::uint64_t expect_partition_hash,
                                       std::string_view expect_backend) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  LCS_CHECK(in.is_open(), "cannot open shortcut record '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  LCS_CHECK(bytes.size() >= 8 &&
                std::memcmp(bytes.data(), kRecordMagic, 4) == 0,
            "not an LCS shortcut record (bad magic): '" + path + "'");
  ByteReader header(std::string_view(bytes).substr(4, 4), "shortcut record");
  const std::uint32_t version = header.get_u32("version");
  LCS_CHECK(version == kShortcutRecordVersion,
            "unsupported shortcut record version " + std::to_string(version));
  return decode_shortcut_record(std::string_view(bytes).substr(8), g,
                                expect_spec_hash, expect_partition_hash,
                                expect_backend);
}

}  // namespace lcs
