/// \file rules.h
/// Internal interface between the lint driver and the rule implementations.
///
/// Two rule tiers:
///  - per-file rules (D1-D4, S1-S4) see one token stream at a time via
///    RuleContext and are pure functions of that file;
///  - project rules (A1-A4, U1) see every file's FileSummary at once,
///    because they reason about the include graph and cross-TU symbol
///    references.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "lint/include_graph.h"
#include "lint/lexer.h"
#include "lint/lint.h"
#include "lint/parse.h"

namespace lcs::lint::detail {

/// Everything a per-file rule sees: the repo-relative path, the token
/// stream with comments stripped (rules never look inside comments or
/// strings), and a sink for findings.
struct RuleContext {
  std::string_view path;
  const std::vector<Token>& code;  ///< comment tokens removed
  std::function<void(int line, int col, std::string_view rule,
                     std::string message, std::string hint)>
      report;
};

void check_d1_unordered_iteration(const RuleContext& ctx);
void check_d2_nondeterminism_sources(const RuleContext& ctx);
void check_d3_pointer_ordering(const RuleContext& ctx);
void check_d4_float_accumulation(const RuleContext& ctx);
void check_s1_unchecked_narrowing(const RuleContext& ctx);
void check_s2_naked_threads(const RuleContext& ctx);
void check_s3_nodiscard_status(const RuleContext& ctx);
void check_s4_shared_capture(const RuleContext& ctx);

/// A suppression directive as parsed from a comment (pre-application:
/// whether it is *used* is decided after project rules run).
struct SuppressionRec {
  int line = 0;         ///< line the comment sits on
  int col = 0;
  int target_line = 0;  ///< line the suppression applies to (0 = none)
  std::vector<std::string> rules;
  std::string reason;
  bool malformed = false;  ///< missing reason / unknown rule
};

/// Everything the pipeline extracts from one file in a single lex+parse;
/// the project rules then run over these summaries alone.
struct FileSummary {
  std::string path;  ///< canonical repo-relative path (include_key)
  std::vector<IncludeDirective> includes;
  Outline outline;
  std::vector<Ref> refs;
  std::vector<Finding> raw_findings;  ///< per-file rules, pre-suppression
  std::vector<SuppressionRec> sups;
};

/// Lex, parse, and run the per-file rule battery over one file.
/// Malformed-suppression LINT findings are included in raw_findings.
FileSummary analyze_source(std::string_view path, std::string_view source);

/// Run the project rules (A1 layering, A2 cycles, A3 missing direct
/// include, A4 unused direct include, U1 dead symbol) over the whole
/// scanned set. `graph` must be built from the same summaries.
/// `layers` may be empty (no manifest found): A1 is then skipped.
void run_project_rules(const std::vector<FileSummary>& files,
                       const IncludeGraph& graph, const LayerManifest& layers,
                       const std::function<void(Finding)>& report);

/// True if `path` ends with `suffix` (repo-relative match).
bool path_ends_with(std::string_view path, std::string_view suffix);
/// True if `path` contains `part` as a substring (directory scoping).
bool path_contains(std::string_view path, std::string_view part);

}  // namespace lcs::lint::detail
