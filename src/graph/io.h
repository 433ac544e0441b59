/// \file io.h
/// Graph corpus I/O: text readers for common interchange formats and a
/// versioned binary cache, so real-world graphs plug into the scenario
/// registry (`file:` specs) next to the synthetic generators — and so the
/// shortcut service (`lcs_serve`) can warm-start from pure I/O.
///
/// Formats:
///  * **Edge list** — one edge per line, `u v [w]`, 0-based node ids,
///    optional integer weight (default 1); `#`-to-end-of-line comments and
///    blank lines are ignored. Node count is `max id + 1` unless a
///    `nodes <n>` directive appears (needed for trailing isolated nodes).
///  * **DIMACS** — `c` comment lines, one `p <type> <n> <m>` problem line,
///    then `e u v` or `a u v [w]` edge lines with **1-based** ids.
///    Symmetric duplicates (`a u v` plus `a v u`) collapse to one edge;
///    repeated edges with differing weights keep the first weight.
///  * **Binary cache** — see the format documentation below. Byte order is
///    explicit little-endian, so a cache written on any host loads on any
///    other. Loading a million-edge cache is one read pass + one CSR
///    build — milliseconds, against seconds for re-parsing text or
///    re-running a generator.
///
/// ## Binary cache format (version 2)
///
///     magic 'LCSG' | u32 version | u32 reserved (0)
///     u64 n | u64 m
///     m x (u32 u | u32 v | u64 w)              edge payload
///     u32 section_count                         -- version >= 2 only
///     section_count x (u32 tag | u64 byte_len | payload bytes)
///
/// Version 1 files end after the edge payload and still load (a v1 file is
/// exactly a v2 file with no section block). Version 2 (this PR) appends
/// *tagged sections* so one cache file can carry the resolved partition and
/// other derived structures next to the graph — the persistence layer that
/// lets `lcs_serve` warm-start without re-running a generator. Readers skip
/// sections with unknown tags (forward compatibility within a version);
/// unknown *versions* are rejected by name, never guessed at.
///
/// Defined section tags:
///  * `kSectionPartition` ("PART") — the scenario's resolved partition:
///    `u32 codec_version (1) | i64 num_parts | u64 n | n x i32 part_of`.
///  * `kSectionMeta` ("META") — provenance of a cached scenario:
///    `u32 codec_version (1) | string spec | string family` (strings are
///    u64-length-prefixed raw bytes).
///  * `"SHCT"` — a constructed shortcut record; encoded and documented in
///    `src/shortcut/persist.h` (the graph layer treats it as opaque bytes).
///
/// ## Atomic writes
///
/// Every `save_*` entry point writes to a temp file of its own,
/// `<path>.tmp.<pid>.<n>` in the same directory, and atomically renames it
/// onto `<path>` once the payload is complete and flushed: a crash, kill,
/// or full disk mid-write can leave a stale temp file behind but never a
/// torn file at the final path — a later run (or the daemon's warm start)
/// sees either the old complete cache or the new one. Concurrent saves of
/// one path (two lcs_serve workers missing the same scenario) never share
/// a temp file; the last rename wins. The regression test drives this via
/// crash-injection hooks (see io.cpp).
///
/// Every reader validates its input and throws CheckFailure with a
/// line-numbered (text) or field-named (binary) diagnosis; the Graph
/// constructor additionally enforces simplicity (no loops / parallels).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"

namespace lcs {

/// Parse an edge-list text stream (see header comment for the format).
[[nodiscard]] Graph read_edge_list(std::istream& in);
[[nodiscard]] Graph load_edge_list(const std::string& path);

/// Parse a DIMACS stream (`p`/`c`/`e`/`a` lines, 1-based ids).
[[nodiscard]] Graph read_dimacs(std::istream& in);
[[nodiscard]] Graph load_dimacs(const std::string& path);

/// Binary cache format version written by `write_binary` /
/// `write_binary_bundle`. History: 1 = graph only; 2 = graph + tagged
/// trailing sections (partitions, scenario metadata, shortcut records).
/// Readers accept versions 1..2.
inline constexpr std::uint32_t kBinaryGraphVersion = 2;

/// Tags of the sections defined at the graph layer (ASCII, little-endian).
inline constexpr std::uint32_t kSectionPartition = 0x54524150;  // "PART"
inline constexpr std::uint32_t kSectionMeta = 0x4154454d;       // "META"

/// One tagged section of a binary cache file (opaque bytes at this layer).
struct BundleSection {
  std::uint32_t tag = 0;
  std::string bytes;
};

/// A binary cache file: the graph plus any trailing sections.
struct GraphBundle {
  Graph graph;
  std::vector<BundleSection> sections;

  /// First section with `tag`, or nullptr.
  [[nodiscard]] const BundleSection* find(std::uint32_t tag) const;
};

/// Serialize to the versioned binary cache format (version 2; a plain
/// graph gets an empty section block).
void write_binary(const Graph& g, std::ostream& out);
void write_binary_bundle(const Graph& g,
                         const std::vector<BundleSection>& sections,
                         std::ostream& out);

/// Atomic file variants (temp file + rename; see header comment).
void save_binary(const Graph& g, const std::string& path);
void save_binary_bundle(const Graph& g,
                        const std::vector<BundleSection>& sections,
                        const std::string& path);

/// Write `bytes` to `path` via the same temp-file + atomic-rename path the
/// binary caches use. For sibling persistence formats (shortcut records).
void save_bytes_atomic(const std::string& bytes, const std::string& path);

/// Load a binary cache; rejects bad magic, unknown versions, out-of-range
/// counts, truncated payloads, and a header declaring more than m + 1
/// nodes (no connected graph, which every scenario needs; checked once the
/// payload has proven m, before any per-node allocation) with a named
/// diagnosis. `read_binary`
/// validates but discards any sections; `read_binary_bundle` returns them.
[[nodiscard]] Graph read_binary(std::istream& in);
[[nodiscard]] Graph load_binary(const std::string& path);
[[nodiscard]] GraphBundle read_binary_bundle(std::istream& in);
[[nodiscard]] GraphBundle load_binary_bundle(const std::string& path);

/// Partition section codec (`kSectionPartition`). Decoding validates the
/// node count against `num_nodes` and every assignment against num_parts.
[[nodiscard]] std::string encode_partition(const Partition& p);
[[nodiscard]] Partition decode_partition(std::string_view bytes, NodeId num_nodes);

/// Scenario-provenance section codec (`kSectionMeta`).
struct BundleMeta {
  std::string spec;
  std::string family;
};
[[nodiscard]] std::string encode_bundle_meta(const BundleMeta& meta);
[[nodiscard]] BundleMeta decode_bundle_meta(std::string_view bytes);

/// Load by extension: `.bin`/`.lcsg` → binary cache, `.dimacs`/`.gr`/`.col`
/// → DIMACS, anything else → edge list.
[[nodiscard]] Graph load_graph(const std::string& path);

}  // namespace lcs
