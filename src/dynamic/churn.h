/// \file churn.h
/// Deterministic edge-churn streams over any scenario family, and the
/// runner that drives a `VerifiedDynamicGraph` through one.
///
/// ## Spec grammar (the `churn:` scenario wrapper)
///
///     churn:base=<base spec>;<param>{,<param>}
///     param := key "=" value
///
/// The base spec is any registered scenario spec (it may contain commas, so
/// `;` separates it from the churn parameters), e.g.:
///
///     "churn:base=er:n=300,deg=6,seed=5;steps=1000,rate=0.02,seed=7"
///
/// `lcs_run --algo=churn` accepts the wrapper directly, or a plain base
/// `--scenario` plus the same comma-separated parameters in `--churn=`.
///
/// ## Parameters (all optional, defaults shown)
///
///   * `steps=1000`     — churn steps
///   * `rate=0.01`      — mutations per step, as a fraction of the base
///                        graph's edge count: ops/step = max(1, floor(rate*m))
///   * `dfrac=0.5`      — probability a mutation is a deletion
///   * `seed=1`         — drives the whole stream (one `lcs::Rng`)
///   * `checkpoints=10` — evenly spaced report points (plus step 0)
///   * `weights=lo-hi`  — inserted-edge weight range (default 1-1)
///   * `verify=step`    — `step` (full oracle check after every mutation),
///                        `sample` (every `vperiod`-th mutation plus every
///                        checkpoint), or `off` (checkpoints only)
///   * `vperiod=64`     — sampling period for `verify=sample`
///
/// ## Stream semantics
///
/// Each step performs ops/step mutations. A mutation is a deletion with
/// probability `dfrac` (a uniformly random live edge), else an insertion (a
/// uniformly random absent non-loop pair; up to 64 rejection-sampling
/// attempts, after which the mutation is skipped and counted). A deletion
/// against an empty graph is likewise skipped and counted. Everything flows
/// through one seeded `lcs::Rng`, so the stream — and every checkpoint
/// record — is a pure function of (base spec, churn params), independent of
/// platform. Unknown/duplicate/malformed parameters are
/// diagnosed via CheckFailure, exactly like static scenario specs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "dynamic/verified.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/quality.h"

namespace lcs::dynamic {

struct ChurnParams {
  std::int64_t steps = 1000;
  double rate = 0.01;
  double delete_frac = 0.5;
  std::uint64_t seed = 1;
  std::int64_t checkpoints = 10;
  Weight weight_lo = 1;
  Weight weight_hi = 1;
  VerifyMode verify = VerifyMode::kEveryStep;
  std::int64_t verify_period = 64;
};

/// A parsed `churn:` wrapper: the embedded base spec plus churn parameters.
struct ChurnSpec {
  std::string base;
  ChurnParams params;
};

/// Parse the comma-separated parameter list (the `--churn=` flag payload).
/// Diagnoses unknown keys, duplicates, and malformed values.
ChurnParams parse_churn_params(std::string_view params);

/// Parse a full `churn:base=<spec>;<params>` wrapper.
ChurnSpec parse_churn_spec(std::string_view spec);

/// `true` if `spec` names the churn wrapper family.
bool is_churn_spec(std::string_view spec);

/// One report point of a churn run. Every field is a pure function of
/// (base graph, partition, params).
struct ChurnCheckpoint {
  std::int64_t step = 0;
  std::int64_t edges = 0;
  std::int64_t components = 0;
  Weight msf_weight = 0;
  std::int64_t msf_edges = 0;
  /// Quality of the *maintained* forest as a shortcut skeleton for the
  /// base partition, vs a *fresh* BFS forest built from the same snapshot.
  ForestQuality maintained;
  ForestQuality fresh;
  DynamicGraph::Counters counters;
  std::int64_t full_verifications = 0;
  friend bool operator==(const ChurnCheckpoint&,
                         const ChurnCheckpoint&) = default;
};

struct ChurnResult {
  std::int64_t ops_per_step = 0;
  std::int64_t skipped_inserts = 0;  ///< rejection budget exhausted
  std::int64_t skipped_deletes = 0;  ///< empty graph
  std::vector<ChurnCheckpoint> checkpoints;
  /// The final structure, for post-run cross-checks (engine validation).
  /// Always engaged on return from run_churn (optional only because Graph
  /// has no default construction).
  std::optional<DynamicGraph::Snapshot> final_snapshot;
};

/// Drive `initial` through the deterministic stream described by `params`,
/// verifying per `params.verify` (and always, fully, at every checkpoint).
/// `part_of` is the base scenario's partition labeling, used for the
/// shortcut-quality tracking at checkpoints. Throws CheckFailure if any
/// incremental-vs-oracle assertion fails.
ChurnResult run_churn(const Graph& initial, const std::vector<PartId>& part_of,
                      const ChurnParams& params);

}  // namespace lcs::dynamic
