/// \file run_driver.h
/// The shared report core behind `lcs_run` and `lcs_serve`.
///
/// One function — `run_document` — turns a `RunOptions` (algo x scenario x
/// params, exactly the vocabulary of the `lcs_run` flags) into the complete
/// JSON report document. The one-shot CLI and the persistent daemon both
/// call it, so a served response is byte-identical to the equivalent
/// `lcs_run` invocation *by construction*: there is exactly one rendering
/// path, not two kept in sync. (The `timing` object is the one sanctioned
/// nondeterminism; `timing=false` suppresses it, and the byte-identity
/// gates compare with it off.)
///
/// ## Hooks
///
/// `RunHooks` lets a caller interpose caches on the two expensive stages of
/// a run; the defaults compute fresh, which is the plain `lcs_run` path.
///
///  * `resolve_scenario` — spec string to resolved scenario. The daemon
///    memoizes these (generators run once per spec, files parse once).
///  * `find_shortcut_record` / `store_shortcut_record` — constructed
///    shortcut structures plus their engine accounting, keyed by
///    `ShortcutCacheKey`. On a hit the engine is not instantiated at all:
///    congestion, block parameter, dilation, and the validation section are
///    recomputed from the cached structures (they are pure functions of
///    them), and the round/message accounting comes from the record.
///    A cold `--algo=shortcut` run renders from the record it just built,
///    so warm and cold responses share every byte.
///
/// The cache key deliberately excludes `validate`: validation only *reads*
/// the structures (the engine's counters are unaffected by it), so one
/// record serves both settings.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "graph/partition.h"
#include "scenario/scenario.h"
#include "shortcut/persist.h"

namespace lcs::driver {

/// One run request: the `lcs_run` flag vocabulary as a struct. Field
/// semantics and defaults match the flags one-for-one (see lcs_run --help).
struct RunOptions {
  std::string algo;
  std::string scenario;
  std::string backend;          ///< shortcut backend; empty = "hiz16"
  std::string churn;            ///< churn parameters for algo "churn"
  std::string sweep;            ///< empty = single run
  std::string save_graph_path;  ///< empty = don't save
  int threads = 1;  ///< accepted (>= 0) and validated; selects nothing
  std::uint64_t seed = 1;
  double fail_rate = 0.25;  ///< components: failed-edge fraction
  bool validate = false;
  bool metrics = false;
  bool timing = true;
};

/// Key of a cached shortcut construction. Hash stability across processes
/// is part of the contract (see util/hash.h).
struct ShortcutCacheKey {
  std::uint64_t spec_hash = 0;
  std::uint64_t partition_hash = 0;
  std::uint64_t seed = 0;
  /// Resolved backend name ("hiz16" for requests that name none) — two
  /// backends on the same (spec, partition, seed) are distinct records.
  std::string backend;
};

/// FNV-1a of the spec string / the partition's canonical byte encoding.
std::uint64_t spec_hash(std::string_view spec);
std::uint64_t partition_hash(const Partition& p);

/// Cache interposition points; every hook is optional (see file comment).
struct RunHooks {
  std::function<std::shared_ptr<const scenario::Scenario>(
      const std::string& spec)>
      resolve_scenario;
  /// The scenario is passed alongside the key so a disk-backed cache can
  /// decode and verify a stored record against the graph it serves.
  std::function<std::shared_ptr<const ShortcutRunRecord>(
      const ShortcutCacheKey&, const scenario::Scenario&)>
      find_shortcut_record;
  std::function<void(const ShortcutCacheKey&, const scenario::Scenario&,
                     const std::shared_ptr<const ShortcutRunRecord>&)>
      store_shortcut_record;
};

/// Run the request and append the complete JSON document (trailing newline
/// included) to `out`. Returns 0, or 1 when `validate` found a mismatch
/// (the report then carries the failing validation section). Throws
/// CheckFailure / std::exception on user-input or I/O errors — render
/// those with `error_document` to keep the error bytes shared too.
int run_document(const RunOptions& options, const RunHooks& hooks,
                 std::string& out);

/// The canonical error report: {"error": {"type", "message", "exit_code"}}
/// plus trailing newline — the shape `lcs_run` has always emitted.
std::string error_document(const char* type, const std::string& message,
                           int exit_code);

}  // namespace lcs::driver
