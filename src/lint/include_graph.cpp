#include "lint/include_graph.h"

#include <algorithm>
#include <map>

#include "lint/lexer.h"
#include "util/cast.h"

namespace lcs::lint {

namespace {

constexpr std::string_view kMarkers[] = {"src", "tools", "tests", "bench",
                                         "examples"};

bool is_marker(std::string_view component) {
  for (const std::string_view m : kMarkers) {
    if (component == m) return true;
  }
  return false;
}

}  // namespace

std::vector<IncludeDirective> extract_includes(
    const std::vector<Token>& toks) {
  std::vector<IncludeDirective> out;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct || t.text != "#" || !t.bol) continue;
    if (toks[i + 1].kind != TokKind::kIdentifier ||
        toks[i + 1].text != "include") {
      continue;
    }
    if (i + 2 >= toks.size()) break;
    const Token& arg = toks[i + 2];
    IncludeDirective d;
    d.line = t.line;
    d.col = t.col;
    if (arg.kind == TokKind::kString && arg.text.size() >= 2) {
      d.target = std::string(arg.text.substr(1, arg.text.size() - 2));
      d.angled = false;
      out.push_back(std::move(d));
    } else if (arg.kind == TokKind::kPunct && arg.text == "<") {
      // `<vector>` lexes as punct/ident/punct tokens; rejoin them until
      // the closing `>` on the same logical line.
      std::string target;
      std::size_t j = i + 3;
      while (j < toks.size() && !toks[j].bol &&
             !(toks[j].kind == TokKind::kPunct && toks[j].text == ">")) {
        target += std::string(toks[j].text);
        ++j;
      }
      d.target = std::move(target);
      d.angled = true;
      out.push_back(std::move(d));
    }
  }
  return out;
}

std::string include_key(std::string_view path) {
  // Split into components and find the last marker component.
  std::size_t start = std::string_view::npos;
  std::size_t comp_begin = 0;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      const std::string_view comp = path.substr(comp_begin, i - comp_begin);
      if (is_marker(comp)) start = comp_begin;
      comp_begin = i + 1;
    }
  }
  if (start == std::string_view::npos) return std::string(path);
  return std::string(path.substr(start));
}

IncludeGraph IncludeGraph::build(
    const std::vector<std::pair<std::string, std::vector<IncludeDirective>>>&
        files) {
  IncludeGraph g;
  g.nodes_.reserve(files.size());
  for (const auto& [path, includes] : files) g.nodes_.push_back(path);
  std::sort(g.nodes_.begin(), g.nodes_.end());
  g.nodes_.erase(std::unique(g.nodes_.begin(), g.nodes_.end()),
                 g.nodes_.end());

  std::map<std::string_view, int> index;
  for (std::size_t i = 0; i < g.nodes_.size(); ++i) {
    index[g.nodes_[i]] = util::checked_cast<int>(i);
  }

  g.out_.assign(g.nodes_.size(), {});
  for (const auto& [path, includes] : files) {
    const auto from_it = index.find(path);
    if (from_it == index.end()) continue;
    std::vector<Edge>& edges = g.out_[util::checked_usize(from_it->second)];
    for (const IncludeDirective& d : includes) {
      if (d.angled) continue;
      // Quoted includes in this repo are rooted at src/; tests and tools
      // sources are never included, but resolve verbatim targets too so
      // synthetic fixtures can name nodes directly.
      const std::string with_src = "src/" + d.target;
      auto it = index.find(std::string_view(with_src));
      if (it == index.end()) it = index.find(std::string_view(d.target));
      if (it == index.end()) continue;  // outside the scanned tree
      edges.push_back(Edge{it->second, d.line, d.col});
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.to != b.to ? a.to < b.to : a.line < b.line;
    });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.to == b.to;
                            }),
                edges.end());
  }
  return g;
}

std::vector<std::vector<int>> IncludeGraph::cycles() const {
  // Iterative Tarjan SCC. Nodes are visited in index order and neighbor
  // lists are sorted, so component discovery order is deterministic.
  const int n = util::checked_cast<int>(nodes_.size());
  std::vector<int> disc(util::checked_usize(n), -1);
  std::vector<int> low(util::checked_usize(n), 0);
  std::vector<bool> on_stack(util::checked_usize(n), false);
  std::vector<int> stack;
  std::vector<std::vector<int>> comps;
  int timer = 0;

  struct Frame {
    int v;
    std::size_t edge;
  };
  std::vector<Frame> call;

  for (int root = 0; root < n; ++root) {
    if (disc[util::checked_usize(root)] != -1) continue;
    call.push_back(Frame{root, 0});
    while (!call.empty()) {
      Frame& f = call.back();
      const std::size_t v = util::checked_usize(f.v);
      if (f.edge == 0) {
        disc[v] = low[v] = timer++;
        stack.push_back(f.v);
        on_stack[v] = true;
      }
      if (f.edge < out_[v].size()) {
        const int w = out_[v][f.edge].to;
        ++f.edge;
        const std::size_t wu = util::checked_usize(w);
        if (disc[wu] == -1) {
          call.push_back(Frame{w, 0});
        } else if (on_stack[wu]) {
          low[v] = std::min(low[v], disc[wu]);
        }
        continue;
      }
      // v exhausted: close its component if it is a root.
      if (low[v] == disc[v]) {
        std::vector<int> comp;
        while (true) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[util::checked_usize(w)] = false;
          comp.push_back(w);
          if (w == f.v) break;
        }
        std::sort(comp.begin(), comp.end());
        comps.push_back(std::move(comp));
      }
      const int done = f.v;
      call.pop_back();
      if (!call.empty()) {
        const std::size_t p = util::checked_usize(call.back().v);
        low[p] = std::min(low[p], low[util::checked_usize(done)]);
      }
    }
  }

  // Keep real cycles: components of size ≥2, or a self-loop.
  std::vector<std::vector<int>> cyc;
  for (std::vector<int>& c : comps) {
    bool is_cycle = c.size() >= 2;
    if (!is_cycle) {
      for (const Edge& e : out_[util::checked_usize(c[0])]) {
        if (e.to == c[0]) is_cycle = true;
      }
    }
    if (is_cycle) cyc.push_back(std::move(c));
  }
  std::sort(cyc.begin(), cyc.end());
  return cyc;
}

LayerManifest LayerManifest::parse(std::string_view text, std::string* error) {
  LayerManifest m;
  if (error != nullptr) error->clear();
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    // Strip comments and surrounding whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;

    // Tokenize on spaces.
    std::vector<std::string> words;
    std::size_t w = 0;
    while (w < line.size()) {
      while (w < line.size() && (line[w] == ' ' || line[w] == '\t')) ++w;
      std::size_t e = w;
      while (e < line.size() && line[e] != ' ' && line[e] != '\t') ++e;
      if (e > w) words.push_back(std::string(line.substr(w, e - w)));
      w = e;
    }
    if (words.size() < 3 || words[0] != "layer") {
      if (error != nullptr) {
        *error = "layers.txt line " + std::to_string(line_no) +
                 ": expected `layer <name> <dir> [<dir>...]`";
      }
      return LayerManifest{};
    }
    Layer layer;
    layer.name = words[1];
    for (std::size_t d = 2; d < words.size(); ++d) {
      std::string dir = words[d];
      while (!dir.empty() && dir.back() == '/') dir.pop_back();
      layer.dirs.push_back(std::move(dir));
    }
    m.layers_.push_back(std::move(layer));
  }
  return m;
}

int LayerManifest::layer_of(std::string_view key) const {
  int best = -1;
  std::size_t best_len = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (const std::string& dir : layers_[i].dirs) {
      if (key.size() > dir.size() + 1 && key.substr(0, dir.size()) == dir &&
          key[dir.size()] == '/' && dir.size() >= best_len) {
        // `>=` so a later layer owning the same dir-length prefix wins;
        // with distinct dirs only a strictly longer prefix can rebind.
        best = util::checked_cast<int>(i);
        best_len = dir.size();
      }
    }
  }
  return best;
}

}  // namespace lcs::lint
