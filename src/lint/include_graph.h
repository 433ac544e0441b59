/// \file include_graph.h
/// Project include-graph for the lcs_lint architecture rules.
///
/// Nodes are repo-relative canonical paths (`src/util/cast.h`,
/// `tools/lcs_run.cpp`); edges are *direct* quoted `#include` directives
/// resolved against the set of scanned files (angled/system includes are
/// outside the project and carry no edges). On top of the raw edges the
/// graph answers the two structural questions the rules ask:
///
///  - A2: is there an include cycle? (strongly connected components)
///  - A1: does any edge point from a lower layer to a higher one,
///    against the committed manifest `src/lint/layers.txt`?
///
/// Everything here is deterministic: nodes are sorted, neighbor lists
/// are sorted, SCCs are emitted in a canonical order.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace lcs::lint {

/// One `#include` directive as written in a file.
struct IncludeDirective {
  std::string target;  ///< path between the quotes / angle brackets
  int line = 0;        ///< physical line of the `#`
  int col = 0;
  bool angled = false; ///< `<...>` (system) vs `"..."` (project)
};

/// Extract all `#include` directives from a token stream (which must
/// come from lex() with splice storage, so spliced directives are seen).
std::vector<IncludeDirective> extract_includes(const std::vector<Token>& toks);

/// Canonicalize a scanned file path to its repo-relative form: the
/// suffix starting at the last `src` / `tools` / `tests` / `bench` /
/// `examples` path component ("/root/repo/src/util/cast.h" and
/// "src/util/cast.h" both map to "src/util/cast.h"). Paths containing
/// no marker are returned unchanged.
std::string include_key(std::string_view path);

class IncludeGraph {
 public:
  struct Edge {
    int to = 0;   ///< node index
    int line = 0; ///< line of the include directive in the source node
    int col = 0;
  };

  /// Build from (canonical path, direct includes) pairs. Quoted targets
  /// resolve against the scanned set by trying `src/<target>` then
  /// `<target>` verbatim; unresolved targets (outside the scanned tree)
  /// and angled includes produce no edge.
  static IncludeGraph build(
      const std::vector<std::pair<std::string, std::vector<IncludeDirective>>>&
          files);

  const std::vector<std::string>& nodes() const { return nodes_; }
  const std::vector<std::vector<Edge>>& out_edges() const { return out_; }

  /// Strongly connected components with ≥2 nodes (i.e. include cycles),
  /// each sorted by node index, the list sorted by smallest member.
  /// A self-include (x includes x) is reported as a size-1 cycle.
  std::vector<std::vector<int>> cycles() const;

 private:
  std::vector<std::string> nodes_;          // sorted
  std::vector<std::vector<Edge>> out_;      // sorted by (to, line)
};

/// The committed layering manifest (src/lint/layers.txt): one
/// `layer <name> <dir> [<dir>...]` line per layer, lowest layer first.
/// A file belongs to the layer owning the longest matching directory
/// prefix; files under no listed directory are unconstrained.
class LayerManifest {
 public:
  struct Layer {
    std::string name;
    std::vector<std::string> dirs;  ///< repo-relative, no trailing slash
  };

  /// Parse the manifest text. On malformed input returns an empty
  /// manifest and sets *error (never throws: the linter must be able to
  /// report a bad manifest as a finding, not crash on it).
  static LayerManifest parse(std::string_view text, std::string* error);

  /// Index of the layer owning `key` (lower index = lower layer), or -1.
  int layer_of(std::string_view key) const;

  const std::vector<Layer>& layers() const { return layers_; }

 private:
  std::vector<Layer> layers_;
};

}  // namespace lcs::lint
