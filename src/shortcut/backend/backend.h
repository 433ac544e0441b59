/// \file backend.h
/// The `ShortcutBackend` registry: a fixed list of shortcut constructions
/// behind one vocabulary, mirroring the scenario-family registry
/// (scenario.h).
///
/// A *backend* is one way to turn (scenario, engine, BFS tree, seed) into a
/// tree-restricted shortcut: a spanning tree of its choosing plus the
/// per-edge part lists, and whatever named statistics its construction
/// produces. The driver runs whichever backend `--backend` names (default
/// `hiz16`, the paper's own pipeline) and renders a shared quality block —
/// congestion, block parameter, dilation estimate, rounds, messages — with
/// identical keys for every backend, so `--sweep` curves and the
/// comparison table (tools/backend_compare.sh) line up per family.
///
/// ## Built-in backends
///
///  * `hiz16` — Haeupler–Izumi–Zuzic (PODC 2016): the embedding-free
///    FindShortcut doubling pipeline (CoreFast + Verification) on the BFS
///    tree. The engine construction; always applicable. Reports that do
///    not name a backend run it and are byte-identical to the
///    pre-registry report format.
///  * `kkoi19` — Kitamura–Kitagawa–Otachi–Izumi ("Low-Congestion Shortcut
///    and Graph Parameters"): treewidth-parameterized construction — per-
///    part Steiner subtrees on a perfect-elimination spanning tree.
///    Applicable to families with a known width bound (`ktree`).
///  * `naive` — the folklore tree-restricted baseline: per-part Steiner
///    subtrees on the BFS tree itself. Block parameter 1, dilation at most
///    2D, congestion up to the part count; always applicable.
///
/// ## Applicability
///
/// `Backend::applicable(sc)` returns the empty string when the backend can
/// run on `sc`, else the reason it cannot (e.g. no known width bound). The
/// driver turns a non-empty reason into the structured `{"error":{...}}`
/// JSON naming the backends that *are* applicable — a parameterized
/// construction on the wrong family fails loudly, never runs degenerately.
///
/// ## Determinism
///
/// A backend's construct is a pure function of (scenario, seed, engine
/// state); all randomness flows through the seeded engine/`Rng` paths, so
/// (spec, backend, seed) is a complete reproducer and backend report cells
/// are golden-pinned like every other cell.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "congest/network.h"
#include "scenario/scenario.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/shortcut.h"
#include "tree/spanning_tree.h"

namespace lcs::backend {

/// The default backend — the paper's own construction. Requests that do
/// not name a backend resolve to it, and its reports carry no backend
/// field, preserving the pre-registry report bytes.
inline constexpr const char* kDefaultBackend = "hiz16";

/// What a backend construction sees: the resolved scenario, the engine
/// (with the BFS tree already built on it — those rounds are the setup
/// accounting), that BFS tree, and the run seed.
struct BackendInput {
  const scenario::Scenario& sc;
  congest::Network& net;
  const SpanningTree& bfs_tree;
  std::uint64_t seed = 1;
};

/// What a backend construction returns: the spanning tree its shortcut is
/// restricted to (the BFS tree, or one of its own making), the shortcut,
/// and accounting.
struct BackendOutput {
  SpanningTree tree;
  Shortcut shortcut;
  /// FindShortcut pipeline stats — populated by `hiz16`, default for
  /// centralized constructions (their result blocks render `stats` below
  /// instead).
  FindShortcutStats find_stats;
  /// Named backend-specific statistics, rendered into the result block in
  /// this order (e.g. kkoi19's measured elimination width).
  std::vector<std::pair<std::string, std::int64_t>> stats;
};

/// A shortcut construction.
struct Backend {
  std::string name;
  std::string paper;    ///< citation tag for --list-backends and the README
  std::string summary;  ///< one-line description for --list-backends
  /// Empty string = applicable to `sc`; otherwise the reason it is not.
  std::function<std::string(const scenario::Scenario&)> applicable;
  std::function<BackendOutput(const BackendInput&)> construct;
};

/// The fixed list of backends: hiz16, kkoi19, naive.
const std::vector<Backend>& backends();

/// Backend by name, or nullptr.
const Backend* find_backend(std::string_view name);

/// Names of the backends applicable to `sc`, in registry order.
std::vector<std::string> applicable_backend_names(const scenario::Scenario& sc);

/// "hiz16, kkoi19, naive" — every backend name, for diagnostics.
std::string registered_backend_names();

}  // namespace lcs::backend
