/// \file lint.h
/// lcs_lint — the repo-specific determinism, safety & architecture
/// static-analysis pass.
///
/// The repo's headline guarantee is that every observable (reports,
/// goldens, serve payloads, engine counters) is bit-identical across the
/// run/serve/cache paths and lcs_serve's worker counts. The golden matrix
/// and TSan enforce that *dynamically, after the fact*; this pass enforces
/// the source-level discipline that makes it true:
///
///   D1  no iteration over `std::unordered_map/set` (hash order is not a
///       program order) outside the blessed sort-before-use helpers;
///   D2  no `rand`/`random_device`/`time`/`chrono` clocks outside
///       `src/util/random.*` and explicitly-suppressed timing fields;
///   D3  no ordering, hashing, or integer round-trips of raw pointer
///       values (addresses vary run to run);
///   D4  no floating-point accumulation in engine/metric code (FP addition
///       is not associative, so accumulation order becomes observable);
///   S1  integer narrowing must route through util::checked_cast /
///       util::truncate_cast (src/util/cast.h), never ad-hoc static_cast;
///   S2  no naked `std::thread`/`std::async` outside util/worker_pool;
///   S3  status/result returns in the io/persist/cache layers must be
///       `[[nodiscard]]`;
///   S4  no mutation of by-reference-captured shared state inside
///       `WorkerPool::run` callbacks outside the per-worker-slot idiom.
///
/// And, with the whole scanned tree in view (the include graph and every
/// file's namespace-scope declarations and references), the structural
/// invariants:
///
///   A1  no include edge climbing the architecture layering committed in
///       src/lint/layers.txt (util -> graph -> congest -> algorithms ->
///       scenario -> driver -> serve -> tools);
///   A2  no include cycles;
///   U1  no dead file-external symbols: a non-static namespace-scope
///       definition in src/ that no other TU references is either
///       file-local or deleted.
///
/// Findings print `file:line:col: RULE: message (fix: hint)`. A finding is
/// suppressed by an end-of-line (or immediately preceding full-line)
/// comment `// lcs-lint: allow(RULE) reason` — the reason is mandatory,
/// and a suppression that matches no finding is itself an error, so stale
/// allows cannot accumulate. Full rule table with rationale and examples:
/// src/lint/README.md.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lcs::lint {

struct Finding {
  std::string file;
  int line = 0;
  int col = 0;
  std::string rule;     ///< "D1".."D4", "S1".."S4", "A1", "A2", "U1", "LINT"
  std::string message;  ///< what is wrong
  std::string hint;     ///< how to fix it
};

struct RuleInfo {
  std::string_view id;
  std::string_view family;     ///< determinism | safety | architecture | deadcode
  std::string_view summary;    ///< what the rule forbids
  std::string_view rationale;  ///< one line: why the repo needs it
  int fixtures = 0;            ///< fixture files/dirs under tests/lint_fixtures
};

/// The enforced rule set, in report order. (The "LINT" pass-hygiene
/// pseudo-rule — malformed or stale suppressions — is not listed here:
/// it cannot be suppressed or disabled.)
const std::vector<RuleInfo>& rule_table();

/// Lint one in-memory translation unit with the *per-file* rules only
/// (D1-D4, S1-S4) — no include graph, no cross-TU analysis. `path` is
/// the repo-relative path; rule scoping (allowlists, per-layer rules)
/// matches on it. Suppression accounting is per-file: unused
/// suppressions come back as LINT findings. If `suppressions_used` is
/// non-null it receives the number of honored suppression directives.
std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source,
                                 int* suppressions_used = nullptr);

/// One in-memory file for lint_sources().
struct SourceFile {
  std::string path;
  std::string source;
};

struct Options {
  /// Layer manifest text (src/lint/layers.txt format). Empty = no
  /// layering: A1 is skipped. lint_paths() auto-discovers the committed
  /// manifest when this is empty.
  std::string layers_text;
};

struct LintResult {
  std::vector<Finding> findings;
  int files_scanned = 0;
  int suppressions_used = 0;
};

/// Lint a set of in-memory files as one project: per-file rules plus the
/// project rules (A1, A2, U1) over the include graph they span. Paths are
/// canonicalized with include_key(). Findings are sorted by
/// (file, line, col, rule).
LintResult lint_sources(const std::vector<SourceFile>& files,
                        const Options& options = {});

/// Lint every `.cpp/.h/.cc/.hpp` under the given files or directories
/// (recursively), in sorted path order, as one project. Paths containing
/// `lint_fixtures` are skipped — the fixture corpus deliberately
/// violates every rule. If options.layers_text is empty, the committed
/// manifest is loaded from `src/lint/layers.txt` (resolved against the
/// working directory and each input path).
LintResult lint_paths(const std::vector<std::string>& paths,
                      const Options& options = {});

/// "file:line:col: RULE: message (fix: hint)".
std::string format_finding(const Finding& f);

/// The machine-readable findings document (schema "lcs-lint-findings-v2",
/// deterministic key order, one JSON object, trailing newline).
std::string format_findings_json(const LintResult& result);

/// The --list-rules text: a block per rule —
/// `ID  [family, fixtures=N]` + `what:` + `why:` lines — plus the LINT
/// pass-hygiene row. Golden-pinned so the docs table cannot drift.
std::string format_rule_table();

}  // namespace lcs::lint
