/// \file arch_rules.cpp
/// Project-wide rules: A1 layering, A2 include cycles, U1 dead
/// file-external symbols. These see every file's FileSummary at once —
/// they reason about the include graph and cross-TU references, which no
/// single file can.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/include_graph.h"
#include "lint/lint.h"
#include "lint/parse.h"
#include "lint/rules.h"
#include "util/cast.h"

namespace lcs::lint::detail {

namespace {

bool is_header(std::string_view path) {
  return path_ends_with(path, ".h") || path_ends_with(path, ".hpp");
}

/// "src/graph/io.cpp" -> "src/graph/io", used for header/source pairing.
std::string_view stem(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string_view::npos ? path : path.substr(0, dot);
}

bool is_pair(std::string_view a, std::string_view b) {
  return stem(a) == stem(b);
}

}  // namespace

void run_project_rules(const std::vector<FileSummary>& files,
                       const IncludeGraph& graph, const LayerManifest& layers,
                       const std::function<void(Finding)>& report) {
  const std::vector<std::string>& nodes = graph.nodes();

  // ---- A1: layering violations -------------------------------------------
  if (!layers.layers().empty()) {
    for (std::size_t f = 0; f < nodes.size(); ++f) {
      const int lf = layers.layer_of(nodes[f]);
      if (lf < 0) continue;
      for (const IncludeGraph::Edge& e : graph.out_edges()[f]) {
        const std::string& to = nodes[util::checked_usize(e.to)];
        const int lt = layers.layer_of(to);
        if (lt < 0 || lt <= lf) continue;
        report(Finding{
            nodes[f], e.line, e.col, "A1",
            "include climbs the architecture layering: " +
                layers.layers()[util::checked_usize(lf)].name + " (" +
                nodes[f] + ") must not include " +
                layers.layers()[util::checked_usize(lt)].name + " (" + to +
                ") — lower layers cannot see higher ones",
            "invert the dependency (callback, registry, or move the shared "
            "piece down); the manifest is src/lint/layers.txt"});
      }
    }
  }

  // ---- A2: include cycles ------------------------------------------------
  for (const std::vector<int>& cyc : graph.cycles()) {
    const std::size_t anchor = util::checked_usize(cyc[0]);
    // Anchor the finding at the first cycle member's edge into the cycle.
    int line = 1;
    int col = 1;
    for (const IncludeGraph::Edge& e : graph.out_edges()[anchor]) {
      if (std::find(cyc.begin(), cyc.end(), e.to) != cyc.end()) {
        line = e.line;
        col = e.col;
        break;
      }
    }
    std::string members;
    for (const int n : cyc) {
      if (!members.empty()) members += ", ";
      members += nodes[util::checked_usize(n)];
    }
    report(Finding{nodes[anchor], line, col, "A2",
                   "include cycle among: " + members +
                       " — cyclic headers make build order and incremental "
                       "analysis ill-defined",
                   "split the shared declarations into a lower header both "
                   "sides can include"});
  }

  // ---- U1: dead file-external symbols ------------------------------------
  // A name is alive if any file references it more times than it declares
  // it (declaration name tokens count as refs; macro definition names do
  // not, so for macros any reference at all is life). Pure name-level:
  // overloads and coincidental name shares are merged — conservative in
  // the safe direction.
  struct RefStat {
    int refs = 0;
    int decls = 0;  // decl name tokens that collect_refs counted
  };
  // name -> per-file stats, and name -> candidate (file, decl) sites.
  std::map<std::string, std::map<std::string, RefStat>> stats;
  struct Site {
    const FileSummary* file;
    const Decl* decl;
  };
  std::map<std::string, std::vector<Site>> candidates;

  for (const FileSummary& f : files) {
    for (const Ref& r : f.refs) {
      // Only names someone defines can be U1 candidates; prune later.
      stats[r.name][f.path].refs += r.count;
    }
    for (const Decl& d : f.outline.decls) {
      if (d.kind != DeclKind::kMacro) {
        // The decl's own name token was counted by collect_refs.
        stats[d.name][f.path].decls += 1;
      }
      if (f.path.size() < 4 || f.path.substr(0, 4) != "src/") continue;
      if (d.file_local) continue;
      if (d.name == "main") continue;
      // Registry entry points are *meant* to be referenced only by the
      // registrar; they are the plugin seam, not dead code.
      if (d.name.size() >= 9 && d.name.substr(0, 9) == "register_") continue;
      candidates[d.name].push_back(Site{&f, &d});
    }
  }

  for (const auto& [name, sites] : candidates) {
    bool alive = false;
    const auto st = stats.find(name);
    if (st != stats.end()) {
      for (const auto& [path, s] : st->second) {
        if (s.refs > s.decls) {
          alive = true;
          break;
        }
      }
    }
    if (alive) continue;

    // Report once per defining file; for a header/source pair, prefer the
    // header declaration (the .cpp definition dies with it).
    std::set<std::string> reported_stems;
    for (const Site& s : sites) {
      bool header_sibling = false;
      if (!is_header(s.file->path)) {
        for (const Site& o : sites) {
          if (o.file != s.file && is_pair(o.file->path, s.file->path)) {
            header_sibling = true;
            break;
          }
        }
      }
      if (header_sibling) continue;
      if (!reported_stems.insert(std::string(stem(s.file->path))).second)
        continue;
      report(Finding{
          s.file->path, s.decl->line, s.decl->col, "U1",
          "'" + name + "' is defined here but referenced by no other "
              "translation unit — dead file-external symbols are API "
              "surface nothing pays for",
          "delete it, make it file-local (static / anonymous namespace), "
          "or reference it from the code that was supposed to use it"});
    }
  }
}

}  // namespace lcs::lint::detail
