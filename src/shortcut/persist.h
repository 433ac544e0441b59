/// \file persist.h
/// Persistence of constructed shortcut structures — the cache records the
/// shortcut service (`lcs_serve`) stores so a warm start answers shortcut
/// requests from pure I/O, with zero engine construction calls.
///
/// A `ShortcutRunRecord` is everything the report renderer needs for one
/// `--algo=shortcut` run on one (scenario, seed):
///  * the constructed structures — the BFS spanning tree (as parent edges;
///    the rest is rebuilt deterministically on load) and the T-restricted
///    shortcut (per-edge part lists) — from which congestion / block /
///    dilation and the validation section are recomputed, and
///  * the engine accounting the construction consumed (setup and algorithm
///    rounds/messages, FindShortcut stats), which cannot be recomputed
///    without re-running the engine.
///
/// The record is keyed by (spec hash, partition hash, seed, backend);
/// decoding verifies the keys match the scenario and backend it is being
/// applied to, so a stale or mismatched cache file is diagnosed, never
/// silently served.
///
/// ## File format (`.lcss`)
///
///     magic 'LCSS' | u32 version (4)
///     u64 spec_hash | u64 partition_hash | u64 seed | string backend
///     i32 root | u64 n | n x i32 parent_edge
///     u64 m | per tree edge with a nonempty part list:
///         (i32 edge | u32 count | count x i32 part)   -- see encode
///     stats: i32 iterations | i32 trials | i32 used_c | i32 used_b
///            | i64 rounds
///     i64 setup_rounds | i64 setup_messages
///     i64 algo_rounds | i64 algo_messages
///     u32 backend_stat_count | backend_stat_count x (string label | i64)
///
/// Version history: v1 had no backend field and no backend stats; v2 stored
/// a labelled charge list (always empty) between the algorithm messages and
/// the backend stats; v3 has v4's layout, but its counts charge every
/// stalled FindShortcut trial up to its iteration budget, where v4 ends the
/// trial at its stall (find_shortcut.h). Older files are rejected loudly
/// ("unsupported shortcut record version 3"), never misread or served with
/// stale counts; `lcs_serve` recomputes and rewrites any record it cannot
/// load.
///
/// All fields little-endian via util/bytes.h; truncation and layout drift
/// are diagnosed field-by-field. Writes go through the same atomic
/// temp-file + rename path as the graph cache (io.h "Atomic writes").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/shortcut.h"
#include "tree/spanning_tree.h"

namespace lcs {

inline constexpr std::uint32_t kShortcutRecordVersion = 4;

/// One cached `--algo=shortcut` construction (see file comment).
struct ShortcutRunRecord {
  std::uint64_t spec_hash = 0;
  std::uint64_t partition_hash = 0;
  std::uint64_t seed = 0;
  /// Name of the backend that built the record (part of the cache key: the
  /// same scenario under two backends yields two distinct records).
  std::string backend;

  SpanningTree tree;
  Shortcut shortcut;
  FindShortcutStats stats;
  /// Backend-specific named statistics (empty for the default backend,
  /// whose result block renders `stats` above instead).
  std::vector<std::pair<std::string, std::int64_t>> backend_stats;

  std::int64_t setup_rounds = 0;
  std::int64_t setup_messages = 0;
  std::int64_t algo_rounds = 0;
  std::int64_t algo_messages = 0;
};

/// Rebuild a full SpanningTree from its parent-edge array (parents, depths,
/// children lists — children sorted by edge id — and the finalize lookups).
/// Throws CheckFailure unless the edges form a rooted spanning tree of `g`.
[[nodiscard]] SpanningTree tree_from_parent_edges(const Graph& g, NodeId root,
                                    std::vector<EdgeId> parent_edge);

[[nodiscard]] std::string encode_shortcut_record(const ShortcutRunRecord& record);

/// Decode against the graph the record was built for; validates every id
/// against `g` and the key fields against `expect_spec_hash` /
/// `expect_partition_hash` / `expect_backend` (pass the hashes of the
/// scenario being served and the resolved backend name).
[[nodiscard]] ShortcutRunRecord decode_shortcut_record(std::string_view bytes,
                                         const Graph& g,
                                         std::uint64_t expect_spec_hash,
                                         std::uint64_t expect_partition_hash,
                                         std::string_view expect_backend);

/// Atomic file wrappers (magic + version + encode/decode payload).
void save_shortcut_record(const ShortcutRunRecord& record,
                          const std::string& path);
[[nodiscard]] ShortcutRunRecord load_shortcut_record(const std::string& path, const Graph& g,
                                       std::uint64_t expect_spec_hash,
                                       std::uint64_t expect_partition_hash,
                                       std::string_view expect_backend);

}  // namespace lcs
