#include "lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "lint/include_graph.h"
#include "lint/lexer.h"
#include "lint/parse.h"
#include "lint/rules.h"
#include "util/json_writer.h"

namespace lcs::lint {

namespace {

bool is_known_rule(std::string_view id) {
  for (const auto& r : rule_table())
    if (r.id == id) return true;
  return false;
}

/// Parse `// lcs-lint: allow(RULE[,RULE...]) reason` out of a comment
/// token. Returns true if the comment is a suppression directive at all
/// (even a malformed one — those become LINT findings, not silent noise).
bool parse_suppression(const Token& comment, detail::SuppressionRec* out,
                       std::vector<Finding>* findings,
                       std::string_view path) {
  // A directive must open the comment (`// lcs-lint: ...`) — prose that
  // merely *mentions* the syntax (docs, this file) is not a directive.
  std::string_view text = comment.text;
  while (!text.empty() && (text.front() == '/' || text.front() == '*' ||
                           text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  const std::size_t tag = text.find("lcs-lint:");
  if (tag != 0) return false;

  out->line = comment.line;
  out->col = comment.col;
  const auto bad = [&](const std::string& what) {
    findings->push_back(Finding{std::string(path), comment.line, comment.col,
                                "LINT", what,
                                "write: // lcs-lint: allow(RULE) reason"});
    out->malformed = true;
  };

  const std::size_t allow = text.find("allow(", tag);
  if (allow == std::string_view::npos) {
    bad("malformed lcs-lint directive (expected 'allow(RULE) reason')");
    return true;
  }
  const std::size_t close = text.find(')', allow);
  if (close == std::string_view::npos) {
    bad("malformed lcs-lint directive (unclosed 'allow(')");
    return true;
  }

  std::string rules(text.substr(allow + 6, close - allow - 6));
  std::stringstream ss(rules);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    // Trim.
    const auto b = rule.find_first_not_of(" \t");
    const auto e = rule.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    rule = rule.substr(b, e - b + 1);
    if (!is_known_rule(rule)) {
      bad("unknown rule '" + rule + "' in lcs-lint allow()");
      continue;
    }
    out->rules.push_back(rule);
  }
  if (out->rules.empty() && !out->malformed) {
    bad("lcs-lint allow() names no rule");
  }

  std::string reason(text.substr(close + 1));
  const auto rb = reason.find_first_not_of(" \t");
  if (rb == std::string::npos) {
    bad("lcs-lint suppression has no reason — every allow() must say why");
  } else {
    out->reason = reason.substr(rb);
  }
  return true;
}

/// Apply a file's suppressions to its findings (per-file and project
/// findings alike). Unsuppressed findings are returned; stale directives
/// become LINT findings. A malformed directive (no reason, unknown rule)
/// suppresses nothing: it is already a LINT finding, and honoring it
/// would let a reason-less allow() pass everywhere except the directive
/// line.
std::vector<Finding> apply_suppressions(
    std::string_view path, const std::vector<detail::SuppressionRec>& sups,
    std::vector<Finding> raw, int* suppressions_used) {
  std::vector<Finding> kept;
  kept.reserve(raw.size());
  std::vector<bool> used(sups.size(), false);

  for (Finding& f : raw) {
    bool suppressed = false;
    for (std::size_t s = 0; s < sups.size(); ++s) {
      const detail::SuppressionRec& sup = sups[s];
      if (sup.malformed || sup.target_line != f.line) continue;
      if (std::find(sup.rules.begin(), sup.rules.end(), f.rule) ==
          sup.rules.end())
        continue;
      used[s] = true;
      suppressed = true;
    }
    if (!suppressed) kept.push_back(std::move(f));
  }

  // Stale suppressions are themselves findings: an allow() that excuses
  // nothing rots into a license the next edit silently inherits.
  for (std::size_t s = 0; s < sups.size(); ++s) {
    const detail::SuppressionRec& sup = sups[s];
    if (used[s] || sup.malformed) continue;
    std::string rules;
    for (const auto& r : sup.rules) {
      if (!rules.empty()) rules += ',';
      rules += r;
    }
    kept.push_back(
        Finding{std::string(path), sup.line, 1, "LINT",
                "unused lcs-lint suppression for " + rules +
                    " — it matches no finding on its line",
                "remove the stale allow() (or move it to the line it "
                "excuses)"});
  }

  if (suppressions_used != nullptr) {
    *suppressions_used = 0;
    for (const bool u : used)
      if (u) ++*suppressions_used;
  }
  return kept;
}

void sort_findings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.col, a.rule, a.message) <
                     std::tie(b.file, b.line, b.col, b.rule, b.message);
            });
}

}  // namespace

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {"D1", "determinism",
       "no iteration over std::unordered_map/set (hash order is not a "
       "program order); sort via util/sorted.h or use std::map",
       "hash-order iteration makes observables depend on the standard "
       "library and the pointer values of the day",
       4},
      {"D2", "determinism",
       "no rand/random_device/clocks outside util/random.* and "
       "explicitly-suppressed timing report fields",
       "every observable must be a pure function of the seed, or goldens "
       "and the serve/run byte-identity gates cannot exist",
       4},
      {"D3", "determinism",
       "no ordering, hashing, or uintptr_t round-trips of raw "
       "pointer values",
       "addresses differ run to run, so anything derived from them is "
       "invisible nondeterminism until a golden breaks",
       4},
      {"D4", "determinism",
       "no floating-point accumulation in engine/metric code "
       "(src/congest, src/mst, src/shortcut, src/apps, src/tree, "
       "src/dynamic, graph/metrics)",
       "FP addition is not associative: thread count and shard boundaries "
       "would become observable in pinned metrics",
       4},
      {"S1", "safety",
       "integer narrowing must use util::checked_cast / "
       "util::truncate_cast (util/cast.h), not ad-hoc static_cast",
       "silent truncation turns an out-of-range size into a wrong answer "
       "instead of a diagnosis",
       4},
      {"S2", "safety",
       "no naked std::thread/std::async outside util/worker_pool",
       "ad-hoc threads bypass the deterministic shard/merge discipline "
       "the engine's guarantees are built on",
       5},
      {"S3", "safety",
       "status/result returns in io/persist/cache/bytes headers must "
       "be [[nodiscard]]",
       "a silently discarded result in those layers is a swallowed "
       "failure or wasted I/O",
       4},
      {"S4", "safety",
       "no mutation of by-reference-captured shared state inside "
       "WorkerPool::run callbacks (per-worker slots and atomics are the "
       "idiom)",
       "concurrent workers race on shared writes and the merge order "
       "becomes an observable TSan may only catch under load",
       4},
      {"A1", "architecture",
       "no include edge climbing the layering committed in "
       "src/lint/layers.txt",
       "a lower layer seeing a higher one inverts the dependency "
       "structure the system is grown along",
       4},
      {"A2", "architecture", "no include cycles between project headers",
       "cyclic headers make build order and incremental analysis "
       "ill-defined",
       4},
      {"A3", "architecture",
       "include what you use: a project symbol's defining header must be "
       "included directly, not reached transitively",
       "a refactor of an intermediate header's includes silently breaks "
       "every file that leaned on it",
       4},
      {"A4", "architecture",
       "no unused direct project includes",
       "dead includes are false dependency edges: they slow builds and "
       "misdirect every reader and tool",
       4},
      {"U1", "deadcode",
       "no dead file-external symbols: a non-static namespace-scope "
       "definition in src/ referenced by no other TU is file-local or "
       "deleted (registry register_* entry points exempt)",
       "dead exports are API surface nothing pays for and the first "
       "place bit-rot hides",
       4},
  };
  return kRules;
}

namespace detail {

FileSummary analyze_source(std::string_view path, std::string_view source) {
  FileSummary s;
  s.path = std::string(path);

  std::string splice_storage;
  const std::vector<Token> tokens = lex(source, &splice_storage);

  // Split comments (suppression carriers) from code (what rules see).
  std::vector<Token> code;
  code.reserve(tokens.size());
  std::set<int> code_lines;
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kComment) {
      SuppressionRec sup;
      if (parse_suppression(t, &sup, &s.raw_findings, path))
        s.sups.push_back(std::move(sup));
      continue;
    }
    code.push_back(t);
    code_lines.insert(t.line);
  }

  // A suppression covers its own line if code shares it; a full-line
  // comment covers the next code line (within two lines, so a directive
  // cannot drift away from what it excuses).
  for (SuppressionRec& sup : s.sups) {
    if (code_lines.count(sup.line) > 0) {
      sup.target_line = sup.line;
    } else {
      sup.target_line = 0;
      for (int l = sup.line + 1; l <= sup.line + 2; ++l) {
        if (code_lines.count(l) > 0) {
          sup.target_line = l;
          break;
        }
      }
    }
  }

  // Structure: includes, outline, refs (comment tokens are ignored by
  // all three, and the bol flags survive in `code`).
  s.includes = extract_includes(code);
  s.outline = parse_outline(code);
  s.refs = collect_refs(code);

  // Per-file rules.
  RuleContext ctx{
      path, code,
      [&](int line, int col, std::string_view rule, std::string message,
          std::string hint) {
        s.raw_findings.push_back(Finding{std::string(path), line, col,
                                         std::string(rule),
                                         std::move(message), std::move(hint)});
      }};
  check_d1_unordered_iteration(ctx);
  check_d2_nondeterminism_sources(ctx);
  check_d3_pointer_ordering(ctx);
  check_d4_float_accumulation(ctx);
  check_s1_unchecked_narrowing(ctx);
  check_s2_naked_threads(ctx);
  check_s3_nodiscard_status(ctx);
  check_s4_shared_capture(ctx);

  return s;
}

}  // namespace detail

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source,
                                 int* suppressions_used) {
  detail::FileSummary s = detail::analyze_source(path, source);
  std::vector<Finding> findings = apply_suppressions(
      path, s.sups, std::move(s.raw_findings), suppressions_used);
  sort_findings(&findings);
  return findings;
}

LintResult lint_sources(const std::vector<SourceFile>& files,
                        const Options& options) {
  LintResult result;

  // Canonical paths, sorted, first-wins on duplicates.
  struct Entry {
    std::string path;
    const std::string* source;
  };
  std::vector<Entry> entries;
  entries.reserve(files.size());
  for (const SourceFile& f : files) {
    entries.push_back(Entry{include_key(f.path), &f.source});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.path < b.path;
                   });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.path == b.path;
                            }),
                entries.end());

  std::vector<detail::FileSummary> summaries;
  summaries.reserve(entries.size());
  for (const Entry& e : entries) {
    summaries.push_back(detail::analyze_source(e.path, *e.source));
    ++result.files_scanned;
  }

  // The include graph over the scanned set.
  std::vector<std::pair<std::string, std::vector<IncludeDirective>>> gfiles;
  gfiles.reserve(summaries.size());
  for (const detail::FileSummary& s : summaries) {
    gfiles.emplace_back(s.path, s.includes);
  }
  const IncludeGraph graph = IncludeGraph::build(gfiles);
  result.graph_dot = graph.to_dot();

  LayerManifest layers;
  if (!options.layers_text.empty()) {
    std::string err;
    layers = LayerManifest::parse(options.layers_text, &err);
    if (!err.empty()) {
      result.findings.push_back(
          Finding{"src/lint/layers.txt", 1, 1, "LINT", err,
                  "fix the manifest: `layer <name> <dir> [<dir>...]`, "
                  "lowest layer first"});
    }
  }

  // Findings per file: the per-file findings plus the project rules,
  // then suppressions applied with that file's directives.
  std::map<std::string, std::vector<Finding>> per_file;
  for (const detail::FileSummary& s : summaries) {
    std::vector<Finding>& bucket = per_file[s.path];
    bucket.insert(bucket.end(), s.raw_findings.begin(), s.raw_findings.end());
  }
  detail::run_project_rules(summaries, graph, layers, [&](Finding f) {
    per_file[f.file].push_back(std::move(f));
  });

  for (const detail::FileSummary& s : summaries) {
    const auto it = per_file.find(s.path);
    std::vector<Finding> raw;
    if (it != per_file.end()) {
      raw = std::move(it->second);
      per_file.erase(it);
    }
    int used = 0;
    std::vector<Finding> kept =
        apply_suppressions(s.path, s.sups, std::move(raw), &used);
    result.suppressions_used += used;
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(kept.begin()),
                           std::make_move_iterator(kept.end()));
  }
  // Findings anchored at paths outside the scanned set (should not
  // happen, but never drop a finding on the floor).
  for (auto& [path, leftover] : per_file) {
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(leftover.begin()),
                           std::make_move_iterator(leftover.end()));
  }

  sort_findings(&result.findings);
  return result;
}

LintResult lint_paths(const std::vector<std::string>& paths,
                      const Options& options) {
  namespace fs = std::filesystem;

  std::vector<std::string> files;
  const auto consider = [&](const fs::path& p) {
    const std::string ext = p.extension().string();
    if (ext != ".cpp" && ext != ".h" && ext != ".cc" && ext != ".hpp") return;
    const std::string s = p.generic_string();
    // The fixture corpus deliberately violates every rule.
    if (s.find("lint_fixtures") != std::string::npos) return;
    files.push_back(s);
  };

  for (const std::string& p : paths) {
    if (fs::is_directory(p)) {
      for (const auto& e : fs::recursive_directory_iterator(p)) {
        if (e.is_regular_file()) consider(e.path());
      }
    } else if (fs::is_regular_file(p)) {
      consider(fs::path(p));
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Options effective = options;
  if (effective.layers_text.empty()) {
    // Auto-discover the committed manifest relative to the working
    // directory and each input path.
    std::vector<std::string> candidates = {"src/lint/layers.txt"};
    for (const std::string& p : paths) {
      candidates.push_back(p + "/lint/layers.txt");
      candidates.push_back(p + "/src/lint/layers.txt");
      const fs::path parent = fs::path(p).parent_path();
      if (!parent.empty()) {
        candidates.push_back((parent / "src/lint/layers.txt").generic_string());
      }
    }
    for (const std::string& c : candidates) {
      std::ifstream in(c, std::ios::binary);
      if (!in) continue;
      std::stringstream buf;
      buf << in.rdbuf();
      effective.layers_text = buf.str();
      break;
    }
  }

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    sources.push_back(SourceFile{f, buf.str()});
  }
  return lint_sources(sources, effective);
}

std::string format_finding(const Finding& f) {
  std::string out = f.file + ":" + std::to_string(f.line) + ":" +
                    std::to_string(f.col) + ": " + f.rule + ": " + f.message;
  if (!f.hint.empty()) out += " (fix: " + f.hint + ")";
  return out;
}

std::string format_findings_json(const LintResult& result) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object();
  w.kv("schema", "lcs-lint-findings-v2");
  w.kv("files_scanned", result.files_scanned);
  w.kv("suppressions_used", result.suppressions_used);
  w.key("findings").begin_array();
  for (const Finding& f : result.findings) {
    w.begin_object();
    w.kv("file", f.file);
    w.kv("line", f.line);
    w.kv("col", f.col);
    w.kv("rule", f.rule);
    w.kv("message", f.message);
    w.kv("hint", f.hint);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.finish();
  return os.str();
}

std::string format_rule_table() {
  std::string out =
      "lcs_lint rules (suppress a line with: // lcs-lint: allow(RULE) "
      "reason)\n\n";
  const auto row = [&](std::string_view id, std::string_view family,
                       int fixtures, std::string_view summary,
                       std::string_view rationale) {
    out += std::string(id) + "  [" + std::string(family) +
           ", fixtures=" + std::to_string(fixtures) + "]\n";
    out += "  what: " + std::string(summary) + "\n";
    out += "  why:  " + std::string(rationale) + "\n";
  };
  for (const RuleInfo& r : rule_table()) {
    row(r.id, r.family, r.fixtures, r.summary, r.rationale);
  }
  row("LINT", "hygiene", 2,
      "malformed or stale lcs-lint suppression directives (reason "
      "missing, unknown rule, allow() matching no finding)",
      "a suppression that excuses nothing is a license the next edit "
      "silently inherits; LINT itself cannot be suppressed");
  return out;
}

}  // namespace lcs::lint
