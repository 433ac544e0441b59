/// \file lcs_lint.cpp
/// CLI for the repo's determinism, safety & architecture static-analysis
/// pass.
///
///   lcs_lint [flags] <path>...
///
///   --list-rules       print the rule table (family, fixture count,
///                      rationale) and exit
///   --json             emit the machine-readable findings document
///                      (schema lcs-lint-findings-v2) on stdout instead
///                      of the human one-line-per-finding format
///   --graph-dot=FILE   write the project include graph as Graphviz DOT
///                      to FILE ('-' = stdout)
///
/// Lints every .cpp/.h under the given files/directories (recursively,
/// skipping the lint_fixtures corpus) as ONE project — the per-file rules
/// plus the include-graph rules (layering, cycles, IWYU, dead symbols),
/// with the layering read from the auto-discovered src/lint/layers.txt —
/// and prints one line per finding:
///
///   file:line:col: RULE: message (fix: hint)
///
/// Exit code 0 = clean, 1 = findings (including stale suppressions),
/// 2 = usage error. The rule table, rationale, and suppression syntax are
/// documented in src/lint/README.md; the same binary runs as the
/// `lcs_lint` ctest and in the static-analysis CI job, and locally via
/// tools/lint_all.sh.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: lcs_lint [--list-rules] [--json] [--graph-dot=FILE] "
               "<path>...\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool json = false;
  std::string graph_dot_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      std::fputs(lcs::lint::format_rule_table().c_str(), stdout);
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (arg.rfind("--graph-dot=", 0) == 0) {
      graph_dot_file = arg.substr(12);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "lcs_lint: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    usage(stderr);
    return 2;
  }
  // A typo'd path would otherwise scan zero files and "pass" — in CI that
  // silently disables the gate.
  for (const std::string& p : paths) {
    if (!std::filesystem::exists(p)) {
      std::fprintf(stderr, "lcs_lint: no such path '%s'\n", p.c_str());
      return 2;
    }
  }

  const lcs::lint::LintResult result = lcs::lint::lint_paths(paths);

  if (!graph_dot_file.empty()) {
    if (graph_dot_file == "-") {
      std::fputs(result.graph_dot.c_str(), stdout);
    } else {
      std::ofstream out(graph_dot_file, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "lcs_lint: cannot write '%s'\n",
                     graph_dot_file.c_str());
        return 2;
      }
      out << result.graph_dot;
    }
  }

  if (json) {
    std::fputs(lcs::lint::format_findings_json(result).c_str(), stdout);
  } else {
    for (const auto& f : result.findings)
      std::printf("%s\n", lcs::lint::format_finding(f).c_str());
  }
  std::fprintf(stderr,
               "lcs_lint: %d file(s) scanned, %zu finding(s), "
               "%d suppression(s) honored\n",
               result.files_scanned, result.findings.size(),
               result.suppressions_used);
  return result.findings.empty() ? 0 : 1;
}
