#include "graph/io.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "util/bytes.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

namespace {

// ------------------------------------------------------------- text side --

/// Split `line` into whitespace-separated tokens, dropping a '#' comment.
std::vector<std::string_view> tokenize(std::string_view line) {
  if (const auto hash = line.find('#'); hash != std::string_view::npos)
    line = line.substr(0, hash);
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                               line[i] == '\r'))
      ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t' &&
           line[j] != '\r')
      ++j;
    if (j > i) tokens.push_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

template <class T>
T parse_number(std::string_view token, int line_no, const char* what) {
  T value{};
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), value);
  LCS_CHECK(res.ec == std::errc() && res.ptr == token.data() + token.size(),
            "line " + std::to_string(line_no) + ": bad " + what + " '" +
                std::string(token) + "'");
  return value;
}

Graph finish_text_graph(NodeId declared_nodes, std::vector<Graph::Edge> edges,
                        NodeId max_id_seen) {
  NodeId n = declared_nodes;
  if (n < 0) n = max_id_seen + 1;
  LCS_CHECK(n >= 1, "graph has no nodes");
  return Graph(n, std::move(edges));
}

// ----------------------------------------------------------- binary side --

void put_u32(std::ostream& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = util::truncate_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 4);
}

void put_u64(std::ostream& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = util::truncate_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 8);
}

bool get_u32(std::istream& in, std::uint32_t& v) {
  unsigned char b[4];
  if (!in.read(reinterpret_cast<char*>(b), 4)) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) v |= util::checked_cast<std::uint32_t>(b[i]) << (8 * i);
  return true;
}

bool get_u64(std::istream& in, std::uint64_t& v) {
  unsigned char b[8];
  if (!in.read(reinterpret_cast<char*>(b), 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return true;
}

constexpr char kMagic[4] = {'L', 'C', 'S', 'G'};

/// Hard caps on the section block, so a corrupt count is diagnosed instead
/// of driving a near-infinite read loop or a huge allocation.
constexpr std::uint32_t kMaxSections = 4096;
constexpr std::uint64_t kMaxSectionBytes = std::uint64_t{1} << 33;
/// A section payload is read this many bytes at a time.
constexpr std::uint64_t kSectionReadChunk = std::uint64_t{1} << 20;

/// Crash-injection modes for the atomic-save regression test
/// (tools/atomic_save_test.sh): `LCS_IO_CRASH=mid-write` kills the process
/// with a half-written temp file (a torn write), `before-rename` with a
/// complete temp file that was never renamed. Both must leave the final
/// path untouched.
int crash_mode() {
  const char* v = std::getenv("LCS_IO_CRASH");
  if (v == nullptr) return 0;
  if (std::strcmp(v, "mid-write") == 0) return 1;
  if (std::strcmp(v, "before-rename") == 0) return 2;
  return 0;
}

/// Write via a temp file of this writer's own + atomic rename, so the
/// final path only ever holds a complete payload (see the io.h "Atomic
/// writes" doc). The pid separates processes and the counter separates
/// the threads of one.
void save_stream_atomic(const std::string& path,
                        const std::function<void(std::ostream&)>& writer) {
  static std::atomic<std::uint64_t> saves{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(saves.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    LCS_CHECK(out.is_open(), "cannot open '" + tmp + "' for writing");
    writer(out);
    out.flush();
    LCS_CHECK(out.good(), "write error while saving '" + tmp + "'");
  }
  switch (crash_mode()) {
    case 1: {
      std::error_code ec;
      const auto size = std::filesystem::file_size(tmp, ec);
      if (!ec) std::filesystem::resize_file(tmp, size / 2, ec);
      std::_Exit(41);
    }
    case 2:
      std::_Exit(42);
    default:
      break;
  }
  LCS_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "cannot rename '" + tmp + "' onto '" + path + "'");
}

std::ifstream open_input(const std::string& path, std::ios::openmode mode) {
  std::ifstream in(path, mode);
  LCS_CHECK(in.is_open(), "cannot open graph file '" + path + "'");
  return in;
}

bool has_suffix(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         std::equal(suffix.rbegin(), suffix.rend(), s.rbegin());
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::vector<Graph::Edge> edges;
  NodeId declared_nodes = -1;
  NodeId max_id = -1;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "nodes") {
      LCS_CHECK(tokens.size() == 2,
                "line " + std::to_string(line_no) +
                    ": 'nodes' directive takes exactly one count");
      declared_nodes = parse_number<NodeId>(tokens[1], line_no, "node count");
      LCS_CHECK(declared_nodes >= 1,
                "line " + std::to_string(line_no) + ": node count must be >= 1");
      continue;
    }
    LCS_CHECK(tokens.size() == 2 || tokens.size() == 3,
              "line " + std::to_string(line_no) +
                  ": expected 'u v [w]', got " +
                  std::to_string(tokens.size()) + " fields");
    const NodeId u = parse_number<NodeId>(tokens[0], line_no, "node id");
    const NodeId v = parse_number<NodeId>(tokens[1], line_no, "node id");
    LCS_CHECK(u >= 0 && v >= 0,
              "line " + std::to_string(line_no) + ": node ids must be >= 0");
    Weight w = 1;
    if (tokens.size() == 3) w = parse_number<Weight>(tokens[2], line_no, "weight");
    max_id = std::max({max_id, u, v});
    edges.push_back({u, v, w});
  }
  return finish_text_graph(declared_nodes, std::move(edges), max_id);
}

Graph load_edge_list(const std::string& path) {
  auto in = open_input(path, std::ios::in);
  return read_edge_list(in);
}

Graph read_dimacs(std::istream& in) {
  std::vector<Graph::Edge> edges;
  NodeId n = -1;
  std::string line;
  int line_no = 0;
  // (u, v) pairs already seen, to collapse symmetric duplicates.
  std::vector<std::pair<NodeId, NodeId>> seen;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty() || tokens[0] == "c") continue;
    if (tokens[0] == "p") {
      LCS_CHECK(n < 0, "line " + std::to_string(line_no) +
                           ": duplicate problem line");
      LCS_CHECK(tokens.size() >= 4,
                "line " + std::to_string(line_no) +
                    ": problem line needs 'p <type> <n> <m>'");
      n = parse_number<NodeId>(tokens[2], line_no, "node count");
      LCS_CHECK(n >= 1, "line " + std::to_string(line_no) +
                            ": node count must be >= 1");
      continue;
    }
    if (tokens[0] == "e" || tokens[0] == "a") {
      LCS_CHECK(n >= 0, "line " + std::to_string(line_no) +
                            ": edge before the problem line");
      LCS_CHECK(tokens.size() == 3 || tokens.size() == 4,
                "line " + std::to_string(line_no) +
                    ": expected '" + std::string(tokens[0]) + " u v [w]'");
      const NodeId u1 = parse_number<NodeId>(tokens[1], line_no, "node id");
      const NodeId v1 = parse_number<NodeId>(tokens[2], line_no, "node id");
      LCS_CHECK(u1 >= 1 && u1 <= n && v1 >= 1 && v1 <= n,
                "line " + std::to_string(line_no) +
                    ": node id out of range (DIMACS ids are 1..n)");
      Weight w = 1;
      if (tokens.size() == 4)
        w = parse_number<Weight>(tokens[3], line_no, "weight");
      const NodeId u = std::min(u1, v1) - 1;
      const NodeId v = std::max(u1, v1) - 1;
      seen.emplace_back(u, v);
      edges.push_back({u, v, w});
      continue;
    }
    LCS_CHECK(false, "line " + std::to_string(line_no) +
                         ": unknown DIMACS line type '" +
                         std::string(tokens[0]) + "'");
  }
  LCS_CHECK(n >= 0, "DIMACS input has no problem line");

  // Collapse symmetric duplicates, keeping the first occurrence's weight
  // (directed inputs commonly list both a u v and a v u). Edge ids follow
  // the order of first occurrence in the file.
  std::vector<std::size_t> order(seen.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return seen[a] != seen[b] ? seen[a] < seen[b] : a < b;
  });
  std::vector<std::size_t> firsts;
  firsts.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && seen[order[i]] == seen[order[i - 1]]) continue;
    firsts.push_back(order[i]);
  }
  std::sort(firsts.begin(), firsts.end());
  std::vector<Graph::Edge> unique;
  unique.reserve(firsts.size());
  for (const std::size_t i : firsts) unique.push_back(edges[i]);
  return Graph(n, std::move(unique));
}

Graph load_dimacs(const std::string& path) {
  auto in = open_input(path, std::ios::in);
  return read_dimacs(in);
}

const BundleSection* GraphBundle::find(std::uint32_t tag) const {
  for (const BundleSection& s : sections)
    if (s.tag == tag) return &s;
  return nullptr;
}

void write_binary_bundle(const Graph& g,
                         const std::vector<BundleSection>& sections,
                         std::ostream& out) {
  LCS_CHECK(sections.size() <= kMaxSections,
            "binary graph bundle has too many sections");
  out.write(kMagic, 4);
  put_u32(out, kBinaryGraphVersion);
  put_u32(out, 0);  // reserved
  put_u64(out, static_cast<std::uint64_t>(g.num_nodes()));
  put_u64(out, static_cast<std::uint64_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    put_u32(out, util::checked_cast<std::uint32_t>(ed.u));
    put_u32(out, util::checked_cast<std::uint32_t>(ed.v));
    put_u64(out, ed.w);
  }
  put_u32(out, util::checked_cast<std::uint32_t>(sections.size()));
  for (const BundleSection& s : sections) {
    LCS_CHECK(s.bytes.size() <= kMaxSectionBytes,
              "binary graph bundle section too large");
    put_u32(out, s.tag);
    put_u64(out, s.bytes.size());
    out.write(s.bytes.data(), static_cast<std::streamsize>(s.bytes.size()));
  }
  LCS_CHECK(out.good(), "write error while saving binary graph");
}

void write_binary(const Graph& g, std::ostream& out) {
  write_binary_bundle(g, {}, out);
}

void save_binary_bundle(const Graph& g,
                        const std::vector<BundleSection>& sections,
                        const std::string& path) {
  save_stream_atomic(
      path, [&](std::ostream& out) { write_binary_bundle(g, sections, out); });
}

void save_binary(const Graph& g, const std::string& path) {
  save_binary_bundle(g, {}, path);
}

void save_bytes_atomic(const std::string& bytes, const std::string& path) {
  save_stream_atomic(path, [&](std::ostream& out) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
}

GraphBundle read_binary_bundle(std::istream& in) {
  char magic[4];
  LCS_CHECK(static_cast<bool>(in.read(magic, 4)) &&
                std::memcmp(magic, kMagic, 4) == 0,
            "not an LCS binary graph (bad magic)");
  std::uint32_t version = 0, reserved = 0;
  LCS_CHECK(get_u32(in, version), "binary graph truncated in header");
  LCS_CHECK(version >= 1 && version <= kBinaryGraphVersion,
            "unsupported binary graph version " + std::to_string(version) +
                " (this build reads versions 1.." +
                std::to_string(kBinaryGraphVersion) + ")");
  LCS_CHECK(get_u32(in, reserved) && reserved == 0,
            "binary graph header has nonzero reserved field");
  std::uint64_t n64 = 0, m64 = 0;
  LCS_CHECK(get_u64(in, n64) && get_u64(in, m64),
            "binary graph truncated in header");
  constexpr std::uint64_t kMaxCount =
      static_cast<std::uint64_t>(std::numeric_limits<NodeId>::max());
  LCS_CHECK(n64 >= 1 && n64 <= kMaxCount, "binary graph node count out of range");
  LCS_CHECK(m64 <= kMaxCount, "binary graph edge count out of range");

  std::vector<Graph::Edge> edges;
  // The header's edge count is untrusted until the payload proves it:
  // cap the up-front reservation so a corrupt count yields the truncation
  // diagnosis below, not a multi-gigabyte allocation attempt.
  edges.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(m64, 1u << 20)));
  for (std::uint64_t i = 0; i < m64; ++i) {
    std::uint32_t u = 0, v = 0;
    std::uint64_t w = 0;
    LCS_CHECK(get_u32(in, u) && get_u32(in, v) && get_u64(in, w),
              "binary graph truncated in edge payload (EOF at edge " +
                  std::to_string(i) + " of " + std::to_string(m64) +
                  " declared in the header)");
    LCS_CHECK(u < n64 && v < n64,
              "binary graph edge " + std::to_string(i) +
                  " endpoint out of range");
    edges.push_back({util::checked_cast<NodeId>(u), util::checked_cast<NodeId>(v), w});
  }
  // The payload has proven m; the node count is still only declared. Every
  // binary graph feeds a scenario, which needs a connected graph, and a
  // connected graph on n nodes has at least n - 1 edges: refuse more nodes
  // before allocating per-node arrays for them.
  LCS_CHECK(n64 <= m64 + 1,
            "binary graph declares " + std::to_string(n64) +
                " nodes but only " + std::to_string(m64) +
                " edges (a connected graph on n nodes has at least n - 1)");

  GraphBundle bundle{Graph(util::checked_cast<NodeId>(n64), std::move(edges)), {}};
  if (version < 2) return bundle;  // v1 files end after the edge payload

  std::uint32_t count = 0;
  LCS_CHECK(get_u32(in, count), "binary graph truncated in section count");
  LCS_CHECK(count <= kMaxSections,
            "binary graph section count out of range (" +
                std::to_string(count) + ")");
  bundle.sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BundleSection s;
    std::uint64_t len = 0;
    LCS_CHECK(get_u32(in, s.tag) && get_u64(in, len),
              "binary graph truncated in section " + std::to_string(i) +
                  " header");
    LCS_CHECK(len <= kMaxSectionBytes,
              "binary graph section " + std::to_string(i) +
                  " length out of range");
    // The declared length is untrusted until the payload proves it: read
    // in bounded chunks, so memory follows the bytes actually present.
    for (std::uint64_t left = len; left > 0;) {
      const auto chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(left, kSectionReadChunk));
      const std::size_t at = s.bytes.size();
      s.bytes.resize(at + chunk);
      LCS_CHECK(static_cast<bool>(in.read(
                    s.bytes.data() + at, static_cast<std::streamsize>(chunk))),
                "binary graph truncated in section " + std::to_string(i) +
                    " payload (" + std::to_string(len) +
                    " bytes declared in the header)");
      left -= chunk;
    }
    bundle.sections.push_back(std::move(s));
  }
  return bundle;
}

Graph read_binary(std::istream& in) {
  return std::move(read_binary_bundle(in).graph);
}

Graph load_binary(const std::string& path) {
  auto in = open_input(path, std::ios::in | std::ios::binary);
  return read_binary(in);
}

GraphBundle load_binary_bundle(const std::string& path) {
  auto in = open_input(path, std::ios::in | std::ios::binary);
  return read_binary_bundle(in);
}

std::string encode_partition(const Partition& p) {
  ByteWriter w;
  w.put_u32(1);  // partition codec version
  w.put_i64(p.num_parts);
  w.put_u64(p.part_of.size());
  for (const PartId id : p.part_of) w.put_i32(id);
  return w.take();
}

Partition decode_partition(std::string_view bytes, NodeId num_nodes) {
  ByteReader r(bytes, "partition section");
  const std::uint32_t version = r.get_u32("codec version");
  LCS_CHECK(version == 1,
            "unsupported partition section version " + std::to_string(version));
  Partition p;
  p.num_parts = util::checked_cast<PartId>(r.get_i64("part count"));
  LCS_CHECK(p.num_parts >= 0, "partition section has negative part count");
  const std::uint64_t n = r.get_u64("node count");
  LCS_CHECK(n == static_cast<std::uint64_t>(num_nodes),
            "partition section is for " + std::to_string(n) +
                " nodes, graph has " + std::to_string(num_nodes));
  p.part_of.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t v = 0; v < n; ++v) {
    const PartId id = r.get_i32("part assignment");
    LCS_CHECK(id == kNoPart || (id >= 0 && id < p.num_parts),
              "partition section assignment out of range at node " +
                  std::to_string(v));
    p.part_of.push_back(id);
  }
  r.expect_done();
  return p;
}

std::string encode_bundle_meta(const BundleMeta& meta) {
  ByteWriter w;
  w.put_u32(1);  // meta codec version
  w.put_string(meta.spec);
  w.put_string(meta.family);
  return w.take();
}

BundleMeta decode_bundle_meta(std::string_view bytes) {
  ByteReader r(bytes, "meta section");
  const std::uint32_t version = r.get_u32("codec version");
  LCS_CHECK(version == 1,
            "unsupported meta section version " + std::to_string(version));
  BundleMeta meta;
  meta.spec = std::string(r.get_string("spec"));
  meta.family = std::string(r.get_string("family"));
  r.expect_done();
  return meta;
}

Graph load_graph(const std::string& path) {
  if (has_suffix(path, ".bin") || has_suffix(path, ".lcsg"))
    return load_binary(path);
  if (has_suffix(path, ".dimacs") || has_suffix(path, ".gr") ||
      has_suffix(path, ".col"))
    return load_dimacs(path);
  return load_edge_list(path);
}

}  // namespace lcs
