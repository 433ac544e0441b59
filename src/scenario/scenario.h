/// \file scenario.h
/// The scenario registry: one string vocabulary for every workload.
///
/// A *scenario spec* names a graph family and its parameters in one
/// copy-pasteable token:
///
///     "grid:w=512,h=512"
///     "er:n=100000,p=2e-4,seed=7"          (or deg=6 for p = deg/n)
///     "rmat:scale=14,deg=8,seed=3"
///     "file:graphs/road.bin"
///
/// `make_scenario` resolves a spec to a `Graph` plus a suggested
/// `Partition` — the "disjoint connected parts" every shortcut workload
/// needs. Benches, examples, tests, CI, and the `lcs_run` driver all build
/// their instances through this registry, so a scenario named anywhere is
/// reproducible everywhere.
///
/// ## Spec grammar
///
///     spec   := family [ ":" params ]
///     params := param { "," param }
///     param  := key "=" value
///
/// For the `file` family the first token after the colon is the path
/// (which therefore must not contain a comma); any remaining tokens are
/// ordinary `key=value` params.
///
/// ## Common parameters (every family)
///
///   * `parts=<k>`, `pseed=<s>` — override the family's suggested
///     partition with k random connected BFS blobs grown from seed s.
///   * `weights=<lo>-<hi>`, `wseed=<s>` — re-weight edges i.i.d. uniform
///     in [lo, hi] (default unit weights), e.g. for MST workloads.
///
/// Unknown families and unknown/duplicate/malformed parameters are
/// diagnosed with CheckFailure naming the offender — a spec either
/// resolves exactly or fails loudly, never half-applies.
///
/// ## Determinism guarantee
///
/// A spec is a pure function: the same spec string always yields the same
/// graph (node ids, edge ids, weights) and the same partition, on every
/// platform. All randomness flows through the explicitly seeded `lcs::Rng`
/// (seed defaults to 1 everywhere); no global state, clocks, or
/// hardware-dependent paths are consulted. Combined with the engine's
/// determinism this makes (spec, algorithm, seed) a complete reproducer —
/// the golden-file CI gate depends on it.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"

namespace lcs::scenario {

/// A resolved scenario: the topology plus a suggested partition.
struct Scenario {
  Graph graph;
  Partition partition;
  std::string family;  ///< resolved family name (e.g. "grid")
  std::string spec;    ///< the spec string as given
};

/// Parsed `key=value` parameters of one spec, with typed accessors that
/// diagnose malformed values and a consumption check that diagnoses
/// unknown keys. Family builders pull their parameters through this.
class SpecArgs {
 public:
  SpecArgs(std::string family,
           std::vector<std::pair<std::string, std::string>> params);

  const std::string& family() const { return family_; }

  bool has(std::string_view key) const;
  std::int64_t get_int(std::string_view key, std::int64_t fallback);
  std::int64_t require_int(std::string_view key);
  std::uint64_t get_uint(std::string_view key, std::uint64_t fallback);
  double get_double(std::string_view key, double fallback);
  double require_double(std::string_view key);
  std::string get_string(std::string_view key, std::string_view fallback);

  /// Throws unless every parameter was consumed by some accessor — a typo
  /// in a spec never silently falls back to a default. The overload taking
  /// `known_keys` appends the accepted keys to the diagnosis.
  void check_all_consumed() const;
  void check_all_consumed(const std::vector<std::string>& known_keys) const;

 private:
  const std::string* find(std::string_view key);

  std::string family_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<bool> consumed_;
};

/// What a family builder returns: the graph, and optionally a
/// family-specific partition (wheel arcs, lower-bound paths, grid rows).
/// When absent the registry supplies random BFS blobs of ~sqrt(n) parts.
struct FamilyResult {
  Graph graph;
  std::optional<Partition> partition;
};

/// A built-in graph family.
struct Family {
  std::string name;
  std::string params_help;  ///< e.g. "w=32,h=w" — defaults shown inline
  std::string summary;      ///< one-line description for --list
  std::function<FamilyResult(SpecArgs&)> build;
  /// Machine-readable accepted keys, excluding the common keys every family
  /// takes (see `common_param_keys`). Drivers consult this to reject a
  /// `--sweep` over a key the family would never read *before* expanding the
  /// sweep. Every family declares its keys.
  std::vector<std::string> param_keys;
};

/// The fixed list of families, for help output.
const std::vector<Family>& families();

/// Family by name, or nullptr.
const Family* find_family(std::string_view name);

/// Keys the registry handles for every family (partition and weight
/// overrides): parts, pseed, weights, wseed.
const std::vector<std::string>& common_param_keys();

/// Every key `family` accepts: its own `param_keys` plus the common keys.
std::vector<std::string> accepted_param_keys(const Family& family);

/// Parse without building: returns (family, params) or throws CheckFailure
/// with a grammar diagnosis.
SpecArgs parse_spec(std::string_view spec);

/// Resolve `spec` to a graph + partition. Throws CheckFailure on unknown
/// families, malformed or unknown parameters, and unloadable files.
Scenario make_scenario(std::string_view spec);

}  // namespace lcs::scenario
