/// \file lint_test.cpp
/// Conformance tests for lcs_lint, driven by the self-describing fixture
/// corpus in tests/lint_fixtures/ (see its README.md for the marker
/// syntax). Flat fixtures declare the repo path they pretend to live at
/// and run through the per-file rules; directory fixtures under
/// project/ are whole pretend repos exercising the include-graph rules
/// (A1-A4, U1) through lint_sources(). Plus unit tests for the lexer's
/// line-splice handling, the outline parser, the include graph and the
/// layer manifest.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/include_graph.h"
#include "lint/lexer.h"
#include "lint/lint.h"
#include "lint/parse.h"

namespace lcs::lint {
namespace {

namespace fs = std::filesystem;

struct Fixture {
  std::string file;          ///< real on-disk fixture path
  std::string pretend_path;  ///< path rule scoping matches against
  std::string source;
  std::vector<std::string> expect;  ///< "RULE:LINE", sorted
  int suppressions = 0;
};

/// Pull `// lint-fixture-*:` markers out of a fixture's leading comments.
Fixture parse_fixture(const fs::path& p) {
  Fixture fx;
  fx.file = p.string();
  std::ifstream in(p, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  fx.source = buf.str();

  std::stringstream lines(fx.source);
  std::string line;
  while (std::getline(lines, line)) {
    const auto value_of = [&](const std::string& key) -> std::string {
      const auto at = line.find(key);
      if (at == std::string::npos) return {};
      std::string v = line.substr(at + key.size());
      const auto b = v.find_first_not_of(" \t");
      if (b == std::string::npos) return {};
      const auto e = v.find_last_not_of(" \t\r");
      return v.substr(b, e - b + 1);
    };
    if (const std::string v = value_of("lint-fixture-path:"); !v.empty()) {
      fx.pretend_path = v;
    } else if (const std::string v = value_of("lint-fixture-expect:");
               !v.empty()) {
      if (v != "none") {
        std::stringstream ss(v);
        std::string item;
        while (ss >> item) fx.expect.push_back(item);
      }
    } else if (const std::string v = value_of("lint-fixture-suppressions:");
               !v.empty()) {
      fx.suppressions = std::stoi(v);
    }
  }
  std::sort(fx.expect.begin(), fx.expect.end());
  return fx;
}

std::vector<fs::path> fixture_files() {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(LCS_LINT_FIXTURE_DIR)) {
    if (!e.is_regular_file()) continue;
    const std::string ext = e.path().extension().string();
    if (ext == ".cpp" || ext == ".h") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The project/ fixture dirs: each is a pretend repo for lint_sources().
std::vector<fs::path> project_fixture_dirs() {
  std::vector<fs::path> dirs;
  const fs::path root = fs::path(LCS_LINT_FIXTURE_DIR) / "project";
  for (const auto& e : fs::directory_iterator(root)) {
    if (e.is_directory()) dirs.push_back(e.path());
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

/// Pull the expect / suppression markers out of one source's text.
/// Expect entries come back as "RULE:LINE".
void parse_markers(const std::string& source, std::vector<std::string>* expect,
                   int* suppressions) {
  std::stringstream lines(source);
  std::string line;
  while (std::getline(lines, line)) {
    const auto value_of = [&](const std::string& key) -> std::string {
      const auto at = line.find(key);
      if (at == std::string::npos) return {};
      std::string v = line.substr(at + key.size());
      const auto b = v.find_first_not_of(" \t");
      if (b == std::string::npos) return {};
      const auto e = v.find_last_not_of(" \t\r");
      return v.substr(b, e - b + 1);
    };
    if (const std::string v = value_of("lint-fixture-expect:"); !v.empty()) {
      if (v != "none") {
        std::stringstream ss(v);
        std::string item;
        while (ss >> item) expect->push_back(item);
      }
    } else if (const std::string v = value_of("lint-fixture-suppressions:");
               !v.empty()) {
      *suppressions += std::stoi(v);
    }
  }
}

TEST(LcsLint, FixtureCorpusMatchesExpectations) {
  const std::vector<fs::path> files = fixture_files();
  ASSERT_FALSE(files.empty()) << "no fixtures under " << LCS_LINT_FIXTURE_DIR;

  for (const fs::path& p : files) {
    const Fixture fx = parse_fixture(p);
    ASSERT_FALSE(fx.pretend_path.empty())
        << p << " is missing its lint-fixture-path marker";

    int used = 0;
    const std::vector<Finding> findings =
        lint_source(fx.pretend_path, fx.source, &used);

    std::vector<std::string> got;
    std::string rendered;
    for (const Finding& f : findings) {
      got.push_back(f.rule + ":" + std::to_string(f.line));
      rendered += "  " + format_finding(f) + "\n";
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, fx.expect) << p << " findings:\n" << rendered;
    EXPECT_EQ(used, fx.suppressions) << p;
  }
}

TEST(LcsLint, EveryRuleHasAViolationFixture) {
  std::set<std::string> covered;
  for (const fs::path& p : fixture_files()) {
    for (const std::string& e : parse_fixture(p).expect)
      covered.insert(e.substr(0, e.find(':')));
  }
  // Project-rule violations live in the directory fixtures.
  for (const fs::path& dir : project_fixture_dirs()) {
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      std::vector<std::string> expect;
      int sups = 0;
      parse_markers(slurp(e.path()), &expect, &sups);
      for (const std::string& x : expect)
        covered.insert(x.substr(0, x.find(':')));
    }
  }
  for (const RuleInfo& r : rule_table()) {
    EXPECT_TRUE(covered.count(std::string(r.id)) > 0)
        << "no fixture exercises rule " << r.id;
  }
  EXPECT_TRUE(covered.count("LINT") > 0)
      << "no fixture exercises the pass-hygiene LINT findings";
}

TEST(LcsLint, ProjectFixtureDirsMatchExpectations) {
  const std::vector<fs::path> dirs = project_fixture_dirs();
  // violation/clean/suppressed/stale for each of A1-A4, U1.
  ASSERT_EQ(dirs.size(), 20u);

  for (const fs::path& dir : dirs) {
    Options options;
    const fs::path layers = dir / "layers.txt";
    if (fs::exists(layers)) options.layers_text = slurp(layers);

    std::vector<SourceFile> files;
    std::vector<std::string> expect;
    int want_sups = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      const std::string ext = e.path().extension().string();
      if (ext != ".cpp" && ext != ".h") continue;
      const std::string rel = fs::relative(e.path(), dir).generic_string();
      std::string source = slurp(e.path());
      std::vector<std::string> file_expect;
      parse_markers(source, &file_expect, &want_sups);
      for (const std::string& x : file_expect) expect.push_back(rel + ":" + x);
      files.push_back(SourceFile{rel, std::move(source)});
    }
    ASSERT_FALSE(files.empty()) << dir;

    const LintResult result = lint_sources(files, options);
    std::vector<std::string> got;
    std::string rendered;
    for (const Finding& f : result.findings) {
      got.push_back(f.file + ":" + f.rule + ":" + std::to_string(f.line));
      rendered += "  " + format_finding(f) + "\n";
    }
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect) << dir << " findings:\n" << rendered;
    EXPECT_EQ(result.suppressions_used, want_sups) << dir;
  }
}

TEST(LcsLint, RuleTableFixtureCountsMatchCorpus) {
  // The fixtures= column in rule_table() (and thus --list-rules and the
  // README) is pinned to what is actually on disk.
  std::map<std::string, int> on_disk;
  for (const fs::path& p : fixture_files()) {
    const std::string name = p.stem().string();
    const auto us = name.find('_');
    if (us != std::string::npos) on_disk[name.substr(0, us)] += 1;
  }
  for (const fs::path& dir : project_fixture_dirs()) {
    const std::string name = dir.filename().string();
    const auto us = name.find('_');
    if (us != std::string::npos) on_disk[name.substr(0, us)] += 1;
  }
  for (const RuleInfo& r : rule_table()) {
    std::string key(r.id);
    for (char& c : key) {
      if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
    }
    EXPECT_EQ(on_disk[key], r.fixtures)
        << "rule " << r.id << ": rule_table() says " << r.fixtures
        << " fixtures, corpus has " << on_disk[key];
  }
  EXPECT_EQ(on_disk["lint"], 2) << "LINT pass-hygiene fixture count drifted";
}

TEST(LcsLint, RealRunsSkipTheFixtureCorpus) {
  // The corpus deliberately violates every rule; the repo-wide walk must
  // never pick it up.
  const LintResult result = lint_paths({LCS_LINT_FIXTURE_DIR});
  EXPECT_EQ(result.files_scanned, 0);
  EXPECT_TRUE(result.findings.empty());
}

TEST(LcsLint, FormatFindingIsStable) {
  const Finding f{"src/x.cpp", 12, 3, "D1", "msg", "do this"};
  EXPECT_EQ(format_finding(f), "src/x.cpp:12:3: D1: msg (fix: do this)");
}

// ---------------------------------------------------------------------------
// Lexer: phase-2 backslash line splices.
// ---------------------------------------------------------------------------

TEST(LcsLexer, SpliceJoinsTokensAcrossPhysicalLines) {
  std::string storage;
  const std::vector<Token> toks = lex("int th\\\nread = 1;", &storage);
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[1].text, "thread");  // rejoined across the splice
  EXPECT_EQ(toks[1].line, 1);         // anchored at the first physical line
  EXPECT_EQ(toks[1].col, 5);
}

TEST(LcsLexer, SpliceWithCrLfAndPositionsAfterIt) {
  std::string storage;
  const std::vector<Token> toks = lex("int a\\\r\nb;\nint c;", &storage);
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[1].text, "ab");
  // Tokens after the splice keep their *physical* positions.
  EXPECT_EQ(toks[3].text, "int");
  EXPECT_EQ(toks[3].line, 3);
  EXPECT_EQ(toks[3].col, 1);
  EXPECT_TRUE(toks[3].bol);
}

TEST(LcsLexer, WithoutStorageNoSpliceIsPerformed) {
  const std::vector<Token> toks = lex("int th\\\nread;");
  // Legacy mode: the two identifier halves stay separate tokens.
  bool joined = false;
  for (const Token& t : toks) {
    if (t.text == "thread") joined = true;
  }
  EXPECT_FALSE(joined);
}

TEST(LcsLexer, BolMarksFirstTokenOfEachLogicalLine) {
  const std::vector<Token> toks = lex("#define X 1\nint y;");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_TRUE(toks[0].bol);   // '#'
  EXPECT_FALSE(toks[1].bol);  // 'define'
  EXPECT_TRUE(toks[4].bol);   // 'int' on line 2
}

// ---------------------------------------------------------------------------
// Include graph.
// ---------------------------------------------------------------------------

TEST(IncludeKey, CanonicalizesToLastMarkerComponent) {
  EXPECT_EQ(include_key("/root/repo/src/util/x.h"), "src/util/x.h");
  EXPECT_EQ(include_key("tools/lcs_lint.cpp"), "tools/lcs_lint.cpp");
  EXPECT_EQ(include_key("/abs/tests/a_test.cpp"), "tests/a_test.cpp");
  EXPECT_EQ(include_key("no_marker.h"), "no_marker.h");
}

TEST(IncludeGraphT, ExtractIncludesSeesQuotedAndAngled) {
  std::string storage;
  const auto toks =
      lex("#include \"util/a.h\"\n#include <vector>\nint x;", &storage);
  const std::vector<IncludeDirective> incs = extract_includes(toks);
  ASSERT_EQ(incs.size(), 2u);
  EXPECT_EQ(incs[0].target, "util/a.h");
  EXPECT_FALSE(incs[0].angled);
  EXPECT_EQ(incs[0].line, 1);
  EXPECT_EQ(incs[1].target, "vector");
  EXPECT_TRUE(incs[1].angled);
}

TEST(IncludeGraphT, ClosureFollowsTransitiveEdges) {
  const auto inc = [](std::string t) {
    return IncludeDirective{std::move(t), 1, 1, false};
  };
  const IncludeGraph g = IncludeGraph::build({
      {"src/a.h", {inc("b.h")}},
      {"src/b.h", {inc("c.h")}},
      {"src/c.h", {}},
  });
  EXPECT_TRUE(g.cycles().empty());
  const int a = g.node_of("src/a.h");
  const int c = g.node_of("src/c.h");
  ASSERT_GE(a, 0);
  ASSERT_GE(c, 0);
  const auto reach = g.closure();
  const auto& ra = reach[static_cast<std::size_t>(a)];
  EXPECT_NE(std::find(ra.begin(), ra.end(), c), ra.end())
      << "a.h should reach c.h through b.h";
}

TEST(IncludeGraphT, PlantedCycleIsDetectedDeterministically) {
  const auto inc = [](std::string t) {
    return IncludeDirective{std::move(t), 3, 1, false};
  };
  const IncludeGraph g = IncludeGraph::build({
      {"src/x.h", {inc("y.h")}},
      {"src/y.h", {inc("x.h")}},
      {"src/z.h", {inc("x.h")}},  // feeds the cycle but is not in it
  });
  const auto cycles = g.cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 2u);
  EXPECT_EQ(g.nodes()[static_cast<std::size_t>(cycles[0][0])], "src/x.h");
  EXPECT_EQ(g.nodes()[static_cast<std::size_t>(cycles[0][1])], "src/y.h");
}

TEST(LayerManifestT, LongestPrefixWinsAndErrorsAreSoft) {
  std::string err;
  const LayerManifest m = LayerManifest::parse(
      "# comment\n"
      "layer algo src/shortcut\n"
      "layer backend src/shortcut/backend\n",
      &err);
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(m.layers().size(), 2u);
  EXPECT_EQ(m.layer_of("src/shortcut/find.h"), 0);
  EXPECT_EQ(m.layer_of("src/shortcut/backend/disjoint.h"), 1);
  EXPECT_EQ(m.layer_of("src/graph/graph.h"), -1);

  const LayerManifest bad = LayerManifest::parse("nonsense here\n", &err);
  EXPECT_FALSE(err.empty());
  EXPECT_TRUE(bad.layers().empty());
}

TEST(LayerManifestT, CommittedManifestParsesAndCoversTheTree) {
  const fs::path p = fs::path(LCS_LINT_SRC_DIR) / "src" / "lint" /
                     "layers.txt";
  ASSERT_TRUE(fs::exists(p)) << p;
  std::string err;
  const LayerManifest m = LayerManifest::parse(slurp(p), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_GE(m.layers().size(), 8u);
  // Spot-check the ordering the A1 rule enforces.
  EXPECT_LT(m.layer_of("src/util/check.h"), m.layer_of("src/graph/graph.h"));
  EXPECT_LT(m.layer_of("src/graph/graph.h"),
            m.layer_of("src/driver/run_driver.h"));
  EXPECT_LT(m.layer_of("src/driver/run_driver.h"),
            m.layer_of("tools/lcs_run.cpp"));
}

// ---------------------------------------------------------------------------
// Outline parser / symbol index.
// ---------------------------------------------------------------------------

TEST(ParseOutline, RecoversNamespaceScopeDecls) {
  std::string storage;
  const auto toks = lex(
      "#pragma once\n"
      "namespace lcs::util {\n"
      "struct Foo { int member; };\n"
      "class Bar;\n"
      "using Alias = int;\n"
      "int helper(int x);\n"
      "static int hidden() { return 1; }\n"
      "namespace { int anon_var = 2; }\n"
      "}  // namespace lcs::util\n"
      "#define MACRO_ONE(a) (helper(a))\n",
      &storage);
  const Outline o = parse_outline(toks);

  std::map<std::string, const Decl*> by_name;
  for (const Decl& d : o.decls) by_name[d.name] = &d;

  ASSERT_TRUE(by_name.count("Foo"));
  EXPECT_EQ(by_name["Foo"]->kind, DeclKind::kType);
  EXPECT_TRUE(by_name["Foo"]->is_definition);
  EXPECT_EQ(by_name["Foo"]->ns, "lcs::util");
  EXPECT_FALSE(by_name.count("member"));  // members are not exports

  ASSERT_TRUE(by_name.count("Bar"));
  EXPECT_FALSE(by_name["Bar"]->is_definition);  // forward declaration

  ASSERT_TRUE(by_name.count("Alias"));
  EXPECT_EQ(by_name["Alias"]->kind, DeclKind::kAlias);

  ASSERT_TRUE(by_name.count("helper"));
  EXPECT_EQ(by_name["helper"]->kind, DeclKind::kFunction);
  EXPECT_FALSE(by_name["helper"]->is_definition);

  ASSERT_TRUE(by_name.count("hidden"));
  EXPECT_TRUE(by_name["hidden"]->file_local);  // static

  ASSERT_TRUE(by_name.count("anon_var"));
  EXPECT_TRUE(by_name["anon_var"]->file_local);  // anonymous namespace

  ASSERT_TRUE(by_name.count("MACRO_ONE"));
  EXPECT_EQ(by_name["MACRO_ONE"]->kind, DeclKind::kMacro);
  const auto mb = o.macro_body_refs.find("MACRO_ONE");
  ASSERT_NE(mb, o.macro_body_refs.end());
  EXPECT_NE(std::find(mb->second.begin(), mb->second.end(), "helper"),
            mb->second.end());
}

TEST(CollectRefs, CountsUsesAndExcludesNoise) {
  std::string storage;
  const auto toks = lex(
      "#include <vector>\n"
      "// Widget in a comment does not count\n"
      "const char* s = \"Widget in a string\";\n"
      "Widget make(Widget w) { return w.clone(); }\n"
      "std::vector<int> v;\n",
      &storage);
  const std::vector<Ref> refs = collect_refs(toks);

  std::map<std::string, const Ref*> by_name;
  for (const Ref& r : refs) by_name[r.name] = &r;

  ASSERT_TRUE(by_name.count("Widget"));
  EXPECT_EQ(by_name["Widget"]->count, 2);  // decl position + param type
  EXPECT_EQ(by_name["Widget"]->line, 4);   // first occurrence
  EXPECT_FALSE(by_name.count("vector"));   // include + std:: qualified
  EXPECT_FALSE(by_name.count("clone"));    // member access
}

// ---------------------------------------------------------------------------
// Pinned surfaces: --list-rules, --json, README rule rows.
// ---------------------------------------------------------------------------

TEST(LcsLint, ListRulesMatchesGolden) {
  const fs::path golden =
      fs::path(LCS_LINT_SRC_DIR) / "tests" / "goldens" / "lint_list_rules.txt";
  ASSERT_TRUE(fs::exists(golden))
      << golden << " missing — regenerate with: lcs_lint --list-rules";
  EXPECT_EQ(format_rule_table(), slurp(golden))
      << "--list-rules drifted; regenerate tests/goldens/lint_list_rules.txt";
}

TEST(LcsLint, FindingsJsonMatchesGolden) {
  // One tiny project with one deliberate A4 finding pins the whole
  // machine-readable schema: key order, counters, finding fields.
  const std::vector<SourceFile> files = {
      {"src/a.h", "#pragma once\nstruct AThing { int v = 0; };\n"},
      {"src/b.cpp", "#include \"a.h\"\nint main() { return 0; }\n"},
      {"src/c.cpp",
       "#include \"a.h\"\nstatic AThing keep_alive() { return {}; }\n"},
  };
  const LintResult result = lint_sources(files, {});
  const fs::path golden =
      fs::path(LCS_LINT_SRC_DIR) / "tests" / "goldens" / "lint_findings.json";
  ASSERT_TRUE(fs::exists(golden)) << golden << " missing";
  EXPECT_EQ(format_findings_json(result), slurp(golden))
      << "findings JSON schema drifted; this is a breaking change for "
         "consumers — update tests/goldens/lint_findings.json deliberately";
}

TEST(LcsLint, ReadmeDocumentsEveryRule) {
  const std::string readme =
      slurp(fs::path(LCS_LINT_SRC_DIR) / "src" / "lint" / "README.md");
  ASSERT_FALSE(readme.empty());
  for (const RuleInfo& r : rule_table()) {
    EXPECT_NE(readme.find("| `" + std::string(r.id) + "` |"),
              std::string::npos)
        << "src/lint/README.md has no table row for rule " << r.id;
  }
  EXPECT_NE(readme.find("| `LINT` |"), std::string::npos)
      << "src/lint/README.md has no table row for the LINT pseudo-rule";
}

}  // namespace
}  // namespace lcs::lint
