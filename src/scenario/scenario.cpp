#include "scenario/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/partition.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs::scenario {

namespace {

template <class T>
T parse_number(std::string_view token, const std::string& key) {
  T value{};
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), value);
  LCS_CHECK(res.ec == std::errc() && res.ptr == token.data() + token.size(),
            "scenario parameter '" + key + "' has malformed value '" +
                std::string(token) + "'");
  return value;
}

NodeId as_node(std::int64_t v, const std::string& key) {
  LCS_CHECK(v >= 0 && v <= std::numeric_limits<NodeId>::max(),
            "scenario parameter '" + key + "' out of 32-bit id range");
  return util::checked_cast<NodeId>(v);
}

/// A count parameter must lie in [1, max]; the diagnosis names the key,
/// the range and what it applies to.
void check_count_in_range(const std::string& key, std::int64_t value,
                          NodeId max, const std::string& what) {
  LCS_CHECK(value >= 1 && value <= max,
            "'" + key + "' must be in [1, " + std::to_string(max) + "] for " +
                what);
}

/// The registry-wide suggested part count: ~sqrt(n) connected blobs, the
/// scale at which shortcut quality is interesting (#parts ~ #per-part
/// nodes, as in the benches).
PartId suggested_parts(NodeId n) {
  const PartId k = std::max<PartId>(
      2, util::checked_trunc<PartId>(std::sqrt(static_cast<double>(n))));
  return std::min<PartId>(k, n);
}

}  // namespace

SpecArgs::SpecArgs(std::string family,
                   std::vector<std::pair<std::string, std::string>> params)
    : family_(std::move(family)),
      params_(std::move(params)),
      consumed_(params_.size(), false) {
  for (std::size_t i = 0; i < params_.size(); ++i)
    for (std::size_t j = i + 1; j < params_.size(); ++j)
      LCS_CHECK(params_[i].first != params_[j].first,
                "duplicate scenario parameter '" + params_[i].first + "'");
}

bool SpecArgs::has(std::string_view key) const {
  for (const auto& [k, v] : params_)
    if (k == key) return true;
  return false;
}

const std::string* SpecArgs::find(std::string_view key) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i].first == key) {
      consumed_[i] = true;
      return &params_[i].second;
    }
  }
  return nullptr;
}

std::int64_t SpecArgs::get_int(std::string_view key, std::int64_t fallback) {
  const std::string* v = find(key);
  return v ? parse_number<std::int64_t>(*v, std::string(key)) : fallback;
}

std::int64_t SpecArgs::require_int(std::string_view key) {
  const std::string* v = find(key);
  LCS_CHECK(v != nullptr, "scenario family '" + family_ +
                              "' requires parameter '" + std::string(key) + "'");
  return parse_number<std::int64_t>(*v, std::string(key));
}

std::uint64_t SpecArgs::get_uint(std::string_view key, std::uint64_t fallback) {
  const std::string* v = find(key);
  return v ? parse_number<std::uint64_t>(*v, std::string(key)) : fallback;
}

double SpecArgs::get_double(std::string_view key, double fallback) {
  const std::string* v = find(key);
  return v ? parse_number<double>(*v, std::string(key)) : fallback;
}

double SpecArgs::require_double(std::string_view key) {
  const std::string* v = find(key);
  LCS_CHECK(v != nullptr, "scenario family '" + family_ +
                              "' requires parameter '" + std::string(key) + "'");
  return parse_number<double>(*v, std::string(key));
}

std::string SpecArgs::get_string(std::string_view key,
                                 std::string_view fallback) {
  const std::string* v = find(key);
  return v ? *v : std::string(fallback);
}

void SpecArgs::check_all_consumed() const {
  for (std::size_t i = 0; i < params_.size(); ++i)
    LCS_CHECK(consumed_[i], "unknown parameter '" + params_[i].first +
                                "' for scenario family '" + family_ + "'");
}

void SpecArgs::check_all_consumed(
    const std::vector<std::string>& known_keys) const {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (consumed_[i]) continue;
    std::string msg = "unknown parameter '" + params_[i].first +
                      "' for scenario family '" + family_ + "' (accepted: ";
    for (std::size_t k = 0; k < known_keys.size(); ++k) {
      if (k > 0) msg += ", ";
      msg += known_keys[k];
    }
    LCS_CHECK(false, msg + ")");
  }
}

SpecArgs parse_spec(std::string_view spec) {
  LCS_CHECK(!spec.empty(), "empty scenario spec");
  const auto colon = spec.find(':');
  std::string family(spec.substr(0, colon));
  LCS_CHECK(!family.empty(), "scenario spec has no family name");

  std::vector<std::pair<std::string, std::string>> params;
  std::string_view rest =
      colon == std::string_view::npos ? std::string_view{} : spec.substr(colon + 1);
  bool first_token = true;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view token = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    LCS_CHECK(!token.empty(), "empty parameter in scenario spec");
    // The file family's first token is a bare path, not key=value.
    if (first_token && family == "file") {
      params.emplace_back("path", std::string(token));
      first_token = false;
      continue;
    }
    first_token = false;
    const auto eq = token.find('=');
    LCS_CHECK(eq != std::string_view::npos && eq > 0,
              "scenario parameter '" + std::string(token) +
                  "' is not of the form key=value");
    params.emplace_back(std::string(token.substr(0, eq)),
                        std::string(token.substr(eq + 1)));
  }
  return SpecArgs(std::move(family), std::move(params));
}

namespace {

std::vector<Family> make_builtin_families() {
  std::vector<Family> fams;

  fams.push_back({"grid", "w=32,h=w[,rows=r]",
                  "w x h grid, planar; rows= partitions into row bands",
                  [](SpecArgs& a) {
                    const NodeId w = as_node(a.get_int("w", 32), "w");
                    const NodeId h = as_node(a.get_int("h", w), "h");
                    FamilyResult r{make_grid(w, h), std::nullopt};
                    if (a.has("rows"))
                      r.partition = make_grid_rows_partition(
                          w, h, as_node(a.require_int("rows"), "rows"));
                    return r;
                  },
                  {"w", "h", "rows"}});

  fams.push_back({"torus", "w=16,h=w",
                  "w x h torus (genus 1)",
                  [](SpecArgs& a) {
                    const NodeId w = as_node(a.get_int("w", 16), "w");
                    const NodeId h = as_node(a.get_int("h", w), "h");
                    return FamilyResult{make_torus(w, h), std::nullopt};
                  },
                  {"w", "h"}});

  fams.push_back({"genus", "w=24,h=w,g=8,seed=1",
                  "grid plus g random chords (orientable genus <= g)",
                  [](SpecArgs& a) {
                    const NodeId w = as_node(a.get_int("w", 24), "w");
                    const NodeId h = as_node(a.get_int("h", w), "h");
                    const int g = util::checked_cast<int>(a.get_int("g", 8));
                    return FamilyResult{
                        make_genus_grid(w, h, g, a.get_uint("seed", 1)),
                        std::nullopt};
                  },
                  {"w", "h", "g", "seed"}});

  fams.push_back({"path", "n=1024",
                  "simple path (extreme high diameter)",
                  [](SpecArgs& a) {
                    return FamilyResult{
                        make_path(as_node(a.get_int("n", 1024), "n")),
                        std::nullopt};
                  },
                  {"n"}});

  fams.push_back({"cycle", "n=1024",
                  "simple cycle",
                  [](SpecArgs& a) {
                    return FamilyResult{
                        make_cycle(as_node(a.get_int("n", 1024), "n")),
                        std::nullopt};
                  },
                  {"n"}});

  fams.push_back({"tree", "n=1024,seed=1",
                  "uniform random attachment tree",
                  [](SpecArgs& a) {
                    return FamilyResult{
                        make_random_tree(as_node(a.get_int("n", 1024), "n"),
                                         a.get_uint("seed", 1)),
                        std::nullopt};
                  },
                  {"n", "seed"}});

  fams.push_back({"maze", "w=32,h=w,keep=0.3,seed=1",
                  "random planar maze: grid spanning tree + keep fraction",
                  [](SpecArgs& a) {
                    const NodeId w = as_node(a.get_int("w", 32), "w");
                    const NodeId h = as_node(a.get_int("h", w), "h");
                    return FamilyResult{
                        make_random_maze(w, h, a.get_double("keep", 0.3),
                                         a.get_uint("seed", 1)),
                        std::nullopt};
                  },
                  {"w", "h", "keep", "seed"}});

  fams.push_back({"er", "n=1024,deg=6|p=...,seed=1",
                  "connected Erdos-Renyi; p= explicit or deg= average degree",
                  [](SpecArgs& a) {
                    const NodeId n = as_node(a.get_int("n", 1024), "n");
                    double p = 0.0;
                    if (a.has("p")) {
                      p = a.require_double("p");
                      LCS_CHECK(p >= 0.0 && p <= 1.0,
                                "'p' must be in [0, 1] for er");
                    } else {
                      // deg= saturates at the complete graph.
                      p = std::min(a.get_double("deg", 6.0) /
                                       static_cast<double>(std::max<NodeId>(n, 1)),
                                   1.0);
                    }
                    return FamilyResult{
                        make_erdos_renyi(n, p, a.get_uint("seed", 1)),
                        std::nullopt};
                  },
                  {"n", "p", "deg", "seed"}});

  fams.push_back({"wheel", "n=513,arcs=8",
                  "cycle + hub (D = 2); parts = rim arcs, hub unassigned",
                  [](SpecArgs& a) {
                    const NodeId n = as_node(a.get_int("n", 513), "n");
                    const std::int64_t arcs = a.get_int("arcs", 8);
                    Graph g = make_wheel(n);
                    check_count_in_range("arcs", arcs, n - 1,
                                         "wheel:n=" + std::to_string(n));
                    return FamilyResult{
                        std::move(g), make_cycle_arcs_partition(
                                          n, util::checked_cast<PartId>(arcs))};
                  },
                  {"n", "arcs"}});

  fams.push_back({"lb", "paths=16,len=paths",
                  "Peleg-Rubinovich lower-bound graph; parts = the paths",
                  [](SpecArgs& a) {
                    const NodeId paths = as_node(a.get_int("paths", 16), "paths");
                    const NodeId len = as_node(a.get_int("len", paths), "len");
                    Graph g = make_lower_bound_graph(paths, len);
                    Partition p =
                        make_lower_bound_partition(paths, len, g.num_nodes());
                    return FamilyResult{std::move(g), std::move(p)};
                  },
                  {"paths", "len"}});

  fams.push_back({"rmat", "scale=10,deg=8|m=...,a=0.57,b=0.19,c=0.19,seed=1",
                  "R-MAT on 2^scale nodes: skewed power-law-like degrees",
                  [](SpecArgs& a) {
                    const int scale = util::checked_cast<int>(a.get_int("scale", 10));
                    LCS_CHECK(scale >= 1 && scale <= 30,
                              "rmat scale must be in [1, 30]");
                    const std::int64_t n = std::int64_t{1} << scale;
                    std::int64_t m;
                    if (a.has("m")) {
                      m = a.require_int("m");
                    } else {
                      m = static_cast<std::int64_t>(
                          static_cast<double>(n) * a.get_double("deg", 8.0) / 2.0);
                    }
                    return FamilyResult{
                        make_rmat(scale,
                                  util::checked_cast<EdgeId>(as_node(m, "m")),
                                  a.get_double("a", 0.57), a.get_double("b", 0.19),
                                  a.get_double("c", 0.19), a.get_uint("seed", 1)),
                        std::nullopt};
                  },
                  {"scale", "deg", "m", "a", "b", "c", "seed"}});

  fams.push_back({"ba", "n=1024,m=3,seed=1",
                  "Barabasi-Albert preferential attachment (power-law hubs)",
                  [](SpecArgs& a) {
                    const NodeId n = as_node(a.get_int("n", 1024), "n");
                    const NodeId m = as_node(a.get_int("m", 3), "m");
                    return FamilyResult{
                        make_barabasi_albert(n, m, a.get_uint("seed", 1)),
                        std::nullopt};
                  },
                  {"n", "m", "seed"}});

  fams.push_back({"rreg", "n=1024,d=4,seed=1",
                  "random d-regular expander (easy-shortcut control)",
                  [](SpecArgs& a) {
                    const NodeId n = as_node(a.get_int("n", 1024), "n");
                    const NodeId d = as_node(a.get_int("d", 4), "d");
                    return FamilyResult{
                        make_random_regular(n, d, a.get_uint("seed", 1)),
                        std::nullopt};
                  },
                  {"n", "d", "seed"}});

  fams.push_back({"ktree", "n=1024,k=3,seed=1",
                  "random k-tree: treewidth exactly k",
                  [](SpecArgs& a) {
                    const NodeId n = as_node(a.get_int("n", 1024), "n");
                    const NodeId k = as_node(a.get_int("k", 3), "k");
                    return FamilyResult{make_ktree(n, k, a.get_uint("seed", 1)),
                                        std::nullopt};
                  },
                  {"n", "k", "seed"}});

  fams.push_back({"file", "<path>[,...]  (.bin/.lcsg, .dimacs/.gr/.col, else edge list)",
                  "load a corpus graph; must be connected",
                  [](SpecArgs& a) {
                    const std::string path = a.get_string("path", "");
                    LCS_CHECK(!path.empty(),
                              "file: scenario needs a path, e.g. "
                              "\"file:graphs/road.bin\"");
                    Graph g = load_graph(path);
                    LCS_CHECK(is_connected(g),
                              "corpus graph '" + path +
                                  "' is not connected; scenarios require "
                                  "connected topologies");
                    return FamilyResult{std::move(g), std::nullopt};
                  },
                  {"path"}});

  return fams;
}

}  // namespace

const std::vector<Family>& families() {
  static const std::vector<Family> fams = make_builtin_families();
  return fams;
}

const Family* find_family(std::string_view name) {
  for (const Family& f : families())
    if (f.name == name) return &f;
  return nullptr;
}

const std::vector<std::string>& common_param_keys() {
  static const std::vector<std::string> keys = {"parts", "pseed", "weights",
                                                "wseed"};
  return keys;
}

std::vector<std::string> accepted_param_keys(const Family& family) {
  std::vector<std::string> keys = family.param_keys;
  keys.insert(keys.end(), common_param_keys().begin(),
              common_param_keys().end());
  return keys;
}

Scenario make_scenario(std::string_view spec) {
  SpecArgs args = parse_spec(spec);

  const Family* family = find_family(args.family());
  LCS_CHECK(family != nullptr,
            "unknown scenario family '" + args.family() +
                "' (run lcs_run --list for the registered families)");

  FamilyResult built = family->build(args);

  // Common re-weighting: weights=lo-hi with i.i.d. uniform weights. wseed
  // only seeds that draw, so it is diagnosed here rather than reported as
  // unknown by a check whose accepted list names it.
  LCS_CHECK(args.has("weights") || !args.has("wseed"),
            "'wseed' requires weights=lo-hi");
  if (args.has("weights")) {
    const std::string range = args.get_string("weights", "");
    const auto dash = range.find('-');
    LCS_CHECK(dash != std::string::npos && dash > 0 && dash + 1 < range.size(),
              "weights= wants a 'lo-hi' range, got '" + range + "'");
    const Weight lo = parse_number<Weight>(
        std::string_view(range).substr(0, dash), "weights");
    const Weight hi = parse_number<Weight>(
        std::string_view(range).substr(dash + 1), "weights");
    built.graph =
        with_random_weights(built.graph, lo, hi, args.get_uint("wseed", 1));
  }

  // Partition: explicit parts= override beats the family suggestion beats
  // the ~sqrt(n) random-BFS default.
  Partition partition;
  if (args.has("parts")) {
    const std::int64_t k = args.require_int("parts");
    const NodeId n = built.graph.num_nodes();
    check_count_in_range("parts", k, n,
                         "a " + std::to_string(n) + "-node graph");
    partition = make_random_bfs_partition(
        built.graph, util::checked_cast<PartId>(k), args.get_uint("pseed", 1));
  } else if (built.partition.has_value()) {
    partition = std::move(*built.partition);
  } else {
    partition = make_random_bfs_partition(
        built.graph, suggested_parts(built.graph.num_nodes()),
        args.get_uint("pseed", 1));
  }

  args.check_all_consumed(accepted_param_keys(*family));
  return Scenario{std::move(built.graph), std::move(partition),
                  args.family(), std::string(spec)};
}

}  // namespace lcs::scenario
