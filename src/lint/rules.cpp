#include "lint/rules.h"

#include "lint/lexer.h"
#include "lint/parse.h"

#include <array>
#include <cstddef>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>

namespace lcs::lint::detail {

namespace {

bool tok_is(const Token& t, TokKind k, std::string_view s) {
  return t.kind == k && t.text == s;
}
bool is_ident(const Token& t, std::string_view s) {
  return tok_is(t, TokKind::kIdentifier, s);
}
bool is_punct(const Token& t, std::string_view s) {
  return tok_is(t, TokKind::kPunct, s);
}
bool is_any_ident(const Token& t) { return t.kind == TokKind::kIdentifier; }

/// Concatenate message parts by appending. GCC 12's -Wrestrict misfires
/// on `"literal" + std::string(view)` chains (GCC PR 105651), and this
/// file is built under -Werror.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view p : parts) out += p;
  return out;
}

/// With tokens[i] == '<', return the index one past the matching '>'.
/// `>>` (lexed as one shift token) counts as two closes — template
/// argument lists are the only place the rules walk angles. Returns
/// tokens.size() if unbalanced.
std::size_t skip_angles(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == "<" || t[i].text == "<<") {
      depth += t[i].text == "<<" ? 2 : 1;
    } else if (t[i].text == ">" || t[i].text == ">>") {
      depth -= t[i].text == ">>" ? 2 : 1;
      if (depth <= 0) return i + 1;
    } else if (t[i].text == ";" || t[i].text == "{") {
      return i;  // not a template argument list after all
    }
  }
  return i;
}

bool in_set(const std::set<std::string, std::less<>>& s, std::string_view v) {
  return s.find(v) != s.end();
}

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

bool is_unordered_type(const Token& t) {
  if (t.kind != TokKind::kIdentifier) return false;
  for (const auto u : kUnorderedTypes)
    if (t.text == u) return true;
  return false;
}

}  // namespace

bool path_ends_with(std::string_view path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.substr(path.size() - suffix.size()) == suffix;
}

bool path_contains(std::string_view path, std::string_view part) {
  return path.find(part) != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// D1 — no iteration over unordered containers
// ---------------------------------------------------------------------------

void check_d1_unordered_iteration(const RuleContext& ctx) {
  // The blessed sort-before-use idiom lives in util/sorted.h; it is the one
  // place allowed to touch hash iteration order (it destroys it by sorting).
  if (path_ends_with(ctx.path, "util/sorted.h")) return;

  const auto& t = ctx.code;

  // Pass 1: names declared with an unordered type (variables, members,
  // parameters, and functions returning one), plus `using` aliases of them.
  std::set<std::string, std::less<>> names;
  std::set<std::string, std::less<>> aliases;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t[i], "using") && i + 2 < t.size() && is_any_ident(t[i + 1]) &&
        is_punct(t[i + 2], "=")) {
      for (std::size_t j = i + 3; j < t.size() && !is_punct(t[j], ";"); ++j) {
        if (is_unordered_type(t[j]) ||
            (is_any_ident(t[j]) && in_set(aliases, t[j].text))) {
          aliases.insert(std::string(t[i + 1].text));
          break;
        }
      }
      continue;
    }
    const bool unordered_here =
        is_unordered_type(t[i]) ||
        (is_any_ident(t[i]) && in_set(aliases, t[i].text));
    if (!unordered_here) continue;
    std::size_t j = i + 1;
    if (j < t.size() && is_punct(t[j], "<")) j = skip_angles(t, j);
    while (j < t.size() &&
           (is_punct(t[j], "&") || is_punct(t[j], "*") ||
            is_ident(t[j], "const")))
      ++j;
    if (j < t.size() && is_any_ident(t[j])) names.insert(std::string(t[j].text));
  }

  const auto report = [&](const Token& at, std::string what) {
    ctx.report(at.line, at.col, "D1",
               "iteration over unordered container " + what +
                   " — hash iteration order is not a program order and "
                   "differs across standard libraries",
               "sort first (util/sorted.h sorted_keys/sorted_items) or use "
               "an ordered container (std::map / flat sorted vector)");
  };

  // Pass 2: range-for over a tracked name (or an inline unordered
  // construction), `.begin()`-family calls, and iterator typedefs.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t[i], "for") && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
      int depth = 0;
      std::size_t colon = 0, close = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].kind != TokKind::kPunct) continue;
        if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++depth;
        else if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") {
          --depth;
          if (depth == 0) { close = j; break; }
        } else if (t[j].text == ":" && depth == 1 && colon == 0) {
          colon = j;
        }
      }
      if (colon != 0 && close != 0) {
        // The blessed idiom: a range expression routed through the
        // util/sorted.h helpers destroys hash order by sorting, so
        // `for (k : sorted_keys(m))` is clean even though `m` is tracked.
        bool blessed = false;
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (is_ident(t[j], "sorted_keys") || is_ident(t[j], "sorted_items") ||
              is_ident(t[j], "sorted_elements")) {
            blessed = true;
            break;
          }
        }
        if (blessed) continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (is_unordered_type(t[j]) ||
              (is_any_ident(t[j]) &&
               (in_set(names, t[j].text) || in_set(aliases, t[j].text)))) {
            report(t[i], cat({"'", t[j].text, "' in a range-for"}));
            break;
          }
        }
      }
      continue;
    }
    if (is_any_ident(t[i]) && in_set(names, t[i].text) && i + 2 < t.size() &&
        (is_punct(t[i + 1], ".") || is_punct(t[i + 1], "->")) &&
        (is_ident(t[i + 2], "begin") || is_ident(t[i + 2], "cbegin") ||
         is_ident(t[i + 2], "rbegin"))) {
      report(t[i], cat({"'", t[i].text, "' via .", t[i + 2].text, "()"}));
      continue;
    }
    if ((is_unordered_type(t[i]) ||
         (is_any_ident(t[i]) && in_set(aliases, t[i].text)))) {
      std::size_t j = i + 1;
      if (j < t.size() && is_punct(t[j], "<")) j = skip_angles(t, j);
      if (j + 1 < t.size() && is_punct(t[j], "::") &&
          (is_ident(t[j + 1], "iterator") ||
           is_ident(t[j + 1], "const_iterator"))) {
        report(t[i], cat({"'", t[i].text, "::", t[j + 1].text, "'"}));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// D2 — no ambient randomness or wall clocks
// ---------------------------------------------------------------------------

void check_d2_nondeterminism_sources(const RuleContext& ctx) {
  // util/random.* is the one seeded randomness facility.
  if (path_ends_with(ctx.path, "util/random.h") ||
      path_ends_with(ctx.path, "util/random.cpp"))
    return;

  static const std::set<std::string, std::less<>> kAlways = {
      "rand",          "srand",          "drand48",
      "rand_r",        "random_device",  "mt19937",
      "mt19937_64",    "minstd_rand",    "minstd_rand0",
      "default_random_engine",           "ranlux24_base",
      "ranlux48_base", "steady_clock",   "system_clock",
      "high_resolution_clock",           "clock_gettime",
      "gettimeofday",  "timespec_get"};
  // Flagged only as a free-function call: `time(...)`, `std::time(...)` —
  // but not `x.time(...)` or a field named `time`.
  static const std::set<std::string, std::less<>> kCallOnly = {
      "time", "clock", "localtime", "gmtime", "ctime"};

  const auto& t = ctx.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_any_ident(t[i])) continue;
    const bool member_access =
        i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
    if (in_set(kAlways, t[i].text) && !member_access) {
      ctx.report(t[i].line, t[i].col, "D2",
                 "ambient nondeterminism source '" + std::string(t[i].text) +
                     "' — observables must be a pure function of the seed",
                 "draw randomness from util/random.h Rng (explicit seed); a "
                 "deliberately-timed report field needs an allow(D2) with "
                 "its reason");
      continue;
    }
    if (in_set(kCallOnly, t[i].text) && !member_access && i + 1 < t.size() &&
        is_punct(t[i + 1], "(")) {
      ctx.report(t[i].line, t[i].col, "D2",
                 "wall-clock call '" + std::string(t[i].text) +
                     "()' in a deterministic path",
                 "timing belongs in the explicitly-timed report fields "
                 "(allow(D2) with a reason), never in logic");
    }
  }
}

// ---------------------------------------------------------------------------
// D3 — no ordering / hashing of raw pointer values
// ---------------------------------------------------------------------------

void check_d3_pointer_ordering(const RuleContext& ctx) {
  const auto& t = ctx.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_any_ident(t[i]) &&
        (t[i].text == "uintptr_t" || t[i].text == "intptr_t")) {
      ctx.report(t[i].line, t[i].col, "D3",
                 "pointer-to-integer round-trip via '" +
                     std::string(t[i].text) +
                     "' — addresses differ run to run, so any observable "
                     "derived from them is nondeterministic",
                 "key on stable ids (NodeId/EdgeId/PartId) instead of "
                 "addresses");
      continue;
    }
    if (is_any_ident(t[i]) &&
        (t[i].text == "hash" || t[i].text == "less" ||
         t[i].text == "greater") &&
        i + 1 < t.size() && is_punct(t[i + 1], "<")) {
      const std::size_t end = skip_angles(t, i + 1);
      for (std::size_t j = i + 2; j + 1 < end + 1 && j < t.size(); ++j) {
        if (is_punct(t[j], "*")) {
          ctx.report(t[i].line, t[i].col, "D3",
                     cat({"'", t[i].text,
                          "' over a raw pointer type — pointer hash/order is "
                          "the allocator's, not the program's"}),
                     "hash or compare a stable id; if identity is needed, "
                     "assign explicit sequence numbers");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// D4 — no floating-point accumulation in engine/metric code
// ---------------------------------------------------------------------------

void check_d4_float_accumulation(const RuleContext& ctx) {
  // Scope: the layers whose outputs are golden-pinned counters/metrics.
  const bool scoped =
      path_contains(ctx.path, "src/congest/") ||
      path_contains(ctx.path, "src/mst/") ||
      path_contains(ctx.path, "src/shortcut/") ||
      path_contains(ctx.path, "src/apps/") ||
      path_contains(ctx.path, "src/tree/") ||
      path_contains(ctx.path, "src/dynamic/") ||
      path_ends_with(ctx.path, "graph/metrics.h") ||
      path_ends_with(ctx.path, "graph/metrics.cpp");
  if (!scoped) return;

  const auto& t = ctx.code;

  // Names declared float/double (variables, members, parameters — not
  // functions returning double: those are pure formulas, the hazard is
  // order-dependent accumulation).
  std::set<std::string, std::less<>> fp_names;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(is_ident(t[i], "float") || is_ident(t[i], "double"))) continue;
    if (i > 0 && is_punct(t[i - 1], "<")) continue;  // template argument
    const Token& name = t[i + 1];
    const Token& after = t[i + 2];
    if (is_any_ident(name) &&
        (is_punct(after, "=") || is_punct(after, ";") ||
         is_punct(after, "{") || is_punct(after, ",") ||
         is_punct(after, ")"))) {
      fp_names.insert(std::string(name.text));
    }
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_any_ident(t[i]) && in_set(fp_names, t[i].text) &&
        i + 1 < t.size() &&
        (is_punct(t[i + 1], "+=") || is_punct(t[i + 1], "-=") ||
         is_punct(t[i + 1], "*="))) {
      ctx.report(t[i].line, t[i].col, "D4",
                 "floating-point accumulation into '" +
                     std::string(t[i].text) +
                     "' in engine/metric code — FP addition is not "
                     "associative, so accumulation order (thread count, "
                     "shard boundaries) becomes observable",
                 "accumulate in integers (counts, charges, fixed-point) and "
                 "convert once at the edge; a timing field needs allow(D4)");
      continue;
    }
    if (is_any_ident(t[i]) &&
        (t[i].text == "accumulate" || t[i].text == "reduce" ||
         t[i].text == "transform_reduce") &&
        i + 1 < t.size() && is_punct(t[i + 1], "(")) {
      ctx.report(t[i].line, t[i].col, "D4",
                 cat({"'", t[i].text,
                      "' in engine/metric code — reduction order over floats "
                      "is an implementation detail"}),
                 "reduce over integers, or spell the loop with a fixed "
                 "deterministic order");
    }
  }
}

// ---------------------------------------------------------------------------
// S1 — narrowing must route through util/cast.h
// ---------------------------------------------------------------------------

void check_s1_unchecked_narrowing(const RuleContext& ctx) {
  static const std::set<std::string, std::less<>> kNarrow = {
      "int",      "short",    "char",     "int8_t",  "uint8_t",
      "int16_t",  "uint16_t", "int32_t",  "uint32_t", "char8_t",
      "char16_t", "char32_t", "NodeId",   "EdgeId",  "PartId"};

  const auto& t = ctx.code;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t[i], "static_cast") || !is_punct(t[i + 1], "<")) continue;
    const std::size_t end = skip_angles(t, i + 1);
    // Normalize the target type: drop std:: qualification and const.
    std::vector<std::string_view> ty;
    for (std::size_t j = i + 2; j + 1 < end && j < t.size(); ++j) {
      if (is_ident(t[j], "std") || is_punct(t[j], "::") ||
          is_ident(t[j], "const"))
        continue;
      ty.push_back(t[j].text);
    }
    bool narrow = false;
    if (ty.size() == 1) {
      narrow = in_set(kNarrow, ty[0]) || ty[0] == "unsigned" ||
               ty[0] == "signed";
    } else if (ty.size() == 2 &&
               (ty[0] == "unsigned" || ty[0] == "signed")) {
      narrow = ty[1] == "char" || ty[1] == "short" || ty[1] == "int";
    }
    if (!narrow) continue;
    std::string shown;
    for (const auto s : ty) {
      if (!shown.empty()) shown += ' ';
      shown += s;
    }
    ctx.report(t[i].line, t[i].col, "S1",
               "ad-hoc narrowing static_cast<" + shown +
                   "> — silent truncation turns an out-of-range size into a "
                   "wrong answer instead of a diagnosis",
               "use util::checked_cast<" + shown +
                   "> (range-checked) or util::truncate_cast<" + shown +
                   "> (intentional truncation) from util/cast.h");
  }
}

// ---------------------------------------------------------------------------
// S2 — no naked thread primitives outside util/worker_pool
// ---------------------------------------------------------------------------

void check_s2_naked_threads(const RuleContext& ctx) {
  if (path_ends_with(ctx.path, "util/worker_pool.h") ||
      path_ends_with(ctx.path, "util/worker_pool.cpp"))
    return;

  const auto& t = ctx.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t[i], "std") && i + 2 < t.size() &&
        is_punct(t[i + 1], "::") &&
        (is_ident(t[i + 2], "thread") || is_ident(t[i + 2], "jthread") ||
         is_ident(t[i + 2], "async"))) {
      ctx.report(t[i].line, t[i].col, "S2",
                 "naked 'std::" + std::string(t[i + 2].text) +
                     "' outside util/worker_pool — an ad-hoc thread "
                     "escapes the pool's join and exception capture",
                 "dispatch through util/worker_pool.h WorkerPool");
      continue;
    }
    if (is_any_ident(t[i]) && t[i].text == "pthread_create") {
      ctx.report(t[i].line, t[i].col, "S2",
                 "raw pthread_create outside util/worker_pool",
                 "dispatch through util/worker_pool.h WorkerPool");
      continue;
    }
    // #include <thread> / <future> outside the pool is the same smell.
    if (is_punct(t[i], "#") && i + 4 < t.size() &&
        is_ident(t[i + 1], "include") && is_punct(t[i + 2], "<") &&
        (is_ident(t[i + 3], "thread") || is_ident(t[i + 3], "future")) &&
        is_punct(t[i + 4], ">")) {
      ctx.report(t[i].line, t[i].col, "S2",
                 "#include <" + std::string(t[i + 3].text) +
                     "> outside util/worker_pool",
                 "thread primitives live behind util/worker_pool.h");
    }
  }
}

// ---------------------------------------------------------------------------
// S3 — status/result returns in io/persist/cache must be [[nodiscard]]
// ---------------------------------------------------------------------------

void check_s3_nodiscard_status(const RuleContext& ctx) {
  const bool scoped = path_ends_with(ctx.path, "graph/io.h") ||
                      path_ends_with(ctx.path, "shortcut/persist.h") ||
                      path_ends_with(ctx.path, "serve/cache.h") ||
                      path_ends_with(ctx.path, "util/bytes.h");
  if (!scoped) return;

  const auto& t = ctx.code;
  std::size_t decl_start = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == TokKind::kPunct &&
        (t[i].text == ";" || t[i].text == "{" || t[i].text == "}")) {
      decl_start = i + 1;
      continue;
    }
    // Access specifiers restart a declaration too.
    if (t[i].kind == TokKind::kPunct && t[i].text == ":" && i > 0 &&
        (is_ident(t[i - 1], "public") || is_ident(t[i - 1], "private") ||
         is_ident(t[i - 1], "protected"))) {
      decl_start = i + 1;
      continue;
    }
    if (!is_punct(t[i], "(") || i == 0) continue;

    const Token& name = t[i - 1];
    if (!is_any_ident(name)) continue;               // lambda, cast, etc.
    if (i >= 2 && (is_punct(t[i - 2], ".") || is_punct(t[i - 2], "->")))
      continue;                                      // member call
    if (i >= 2 && is_ident(t[i - 2], "operator")) continue;

    // Return-type span (tokens between decl start and the name).
    bool skip = false, has_nodiscard = false;
    std::vector<std::size_t> type_toks;
    for (std::size_t j = decl_start; j + 1 < i; ++j) {
      if (is_ident(t[j], "nodiscard")) { has_nodiscard = true; continue; }
      if (is_punct(t[j], "[[") || is_punct(t[j], "]]")) continue;
      if (is_ident(t[j], "static") || is_ident(t[j], "inline") ||
          is_ident(t[j], "virtual") || is_ident(t[j], "explicit") ||
          is_ident(t[j], "constexpr") || is_ident(t[j], "friend") ||
          is_ident(t[j], "extern"))
        continue;
      // A bare `:` can never appear in a return type (`::` is its own
      // token): it marks a constructor init list or a ternary, not a
      // declaration.
      if (is_ident(t[j], "void") || is_ident(t[j], "return") ||
          is_ident(t[j], "using") || is_ident(t[j], "template") ||
          is_ident(t[j], "throw") || is_ident(t[j], "new") ||
          is_ident(t[j], "delete") || is_ident(t[j], "case") ||
          is_punct(t[j], "=") || is_punct(t[j], "~") || is_punct(t[j], "#") ||
          is_punct(t[j], ":")) {
        skip = true;
        break;
      }
      type_toks.push_back(j);
    }
    if (skip || type_toks.empty()) continue;  // void fn, ctor, call, stmt

    // Must actually be a declaration: the matching ')' is followed by
    // `;`, `{`, `const`, `noexcept`, `override`, or `= ...`.
    int depth = 0;
    std::size_t close = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
      if (is_punct(t[j], "(")) ++depth;
      else if (is_punct(t[j], ")")) {
        if (--depth == 0) { close = j; break; }
      }
    }
    if (close == 0 || close + 1 >= t.size()) continue;
    std::size_t after = close + 1;
    while (after < t.size() &&
           (is_ident(t[after], "const") || is_ident(t[after], "noexcept") ||
            is_ident(t[after], "override") || is_ident(t[after], "final")))
      ++after;
    if (after >= t.size() ||
        !(is_punct(t[after], ";") || is_punct(t[after], "{") ||
          is_punct(t[after], "=")))
      continue;

    if (!has_nodiscard) {
      ctx.report(name.line, name.col, "S3",
                 "status/result-returning declaration '" +
                     std::string(name.text) +
                     "' in the io/persist/cache layer is not [[nodiscard]] "
                     "— a silently discarded result here is a swallowed "
                     "failure or wasted I/O",
                 "mark it [[nodiscard]]; the -Werror build then rejects any "
                 "call site that drops the result");
    }
  }
}

// ---------------------------------------------------------------------------
// S4 — no shared-mutable by-reference capture inside WorkerPool callbacks
// ---------------------------------------------------------------------------

void check_s4_shared_capture(const RuleContext& ctx) {
  // The deterministic idiom for pool callbacks is: read shared inputs,
  // write only through a per-worker slot (`results[w] = ...`) or an
  // atomic cursor. A bare write to a by-reference-captured name from
  // inside `pool.run(...)` is a race (or an order-dependent merge) the
  // golden matrix can only catch after the fact.
  if (path_ends_with(ctx.path, "util/worker_pool.h") ||
      path_ends_with(ctx.path, "util/worker_pool.cpp"))
    return;

  static const std::set<std::string, std::less<>> kMutatingMembers = {
      "push_back", "emplace_back", "insert", "erase",  "clear",
      "resize",    "reserve",      "assign", "append", "pop_back"};
  static const std::set<std::string, std::less<>> kAssignOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="};

  const auto& t = ctx.code;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    // Receiver whose name mentions a pool, calling run.
    if (!is_any_ident(t[i]) ||
        t[i].text.find("pool") == std::string_view::npos) {
      continue;
    }
    if (!(is_punct(t[i + 1], ".") || is_punct(t[i + 1], "->"))) continue;
    if (!is_ident(t[i + 2], "run")) continue;
    if (!is_punct(t[i + 3], "(")) continue;

    // Locate the lambda argument: first `[` inside the call.
    int call_depth = 0;
    std::size_t lam = 0;
    for (std::size_t j = i + 3; j < t.size(); ++j) {
      if (is_punct(t[j], "(")) ++call_depth;
      else if (is_punct(t[j], ")")) {
        if (--call_depth == 0) break;
      } else if (is_punct(t[j], "[") && call_depth == 1) {
        lam = j;
        break;
      }
    }
    if (lam == 0) continue;

    // Capture list: `[&]` (default by-ref) or explicit `&name` /
    // `&name = expr` entries. By-value entries are safe by construction.
    bool default_by_ref = false;
    std::set<std::string, std::less<>> by_ref;
    std::set<std::string, std::less<>> by_value;
    std::size_t cap_end = lam;
    for (std::size_t j = lam + 1; j < t.size(); ++j) {
      if (is_punct(t[j], "]")) {
        cap_end = j;
        break;
      }
      if (is_punct(t[j], "&")) {
        if (j + 1 < t.size() && is_any_ident(t[j + 1])) {
          by_ref.insert(std::string(t[j + 1].text));
          ++j;
        } else {
          default_by_ref = true;
        }
      } else if (is_any_ident(t[j]) && !is_ident(t[j], "this")) {
        by_value.insert(std::string(t[j].text));
      }
    }
    if (cap_end == lam) continue;

    // Parameter list: every identifier in it is local to the callback
    // (types too — overbroad, but only ever in the safe direction).
    std::set<std::string, std::less<>> locals;
    std::size_t body = cap_end + 1;
    if (body < t.size() && is_punct(t[body], "(")) {
      int d = 0;
      for (std::size_t j = body; j < t.size(); ++j) {
        if (is_punct(t[j], "(")) ++d;
        else if (is_punct(t[j], ")")) {
          if (--d == 0) { body = j + 1; break; }
        } else if (is_any_ident(t[j]) && !is_cpp_keyword(t[j].text)) {
          locals.insert(std::string(t[j].text));
        }
      }
    }
    while (body < t.size() && !is_punct(t[body], "{")) {
      if (is_punct(t[body], ";")) break;  // no body (declaration-ish)
      ++body;
    }
    if (body >= t.size() || !is_punct(t[body], "{")) continue;
    int d = 0;
    std::size_t body_end = body;
    for (std::size_t j = body; j < t.size(); ++j) {
      if (is_punct(t[j], "{")) ++d;
      else if (is_punct(t[j], "}")) {
        if (--d == 0) { body_end = j; break; }
      }
    }

    // Pass 1 over the body: names declared locally (declarations read as
    // `Type name =/{/;/(...)` — the name is an identifier preceded by an
    // identifier / `auto` / `>` / `*` / `&` / `const` and followed by an
    // initializer or terminator; range-for `:` included).
    for (std::size_t j = body + 1; j + 1 < body_end; ++j) {
      if (!is_any_ident(t[j]) || is_cpp_keyword(t[j].text)) continue;
      const Token& prev = t[j - 1];
      const Token& next = t[j + 1];
      const bool decl_prev =
          is_any_ident(prev) || is_punct(prev, ">") || is_punct(prev, "*") ||
          is_punct(prev, "&") || is_punct(prev, ">>");
      const bool decl_next = is_punct(next, "=") || is_punct(next, "{") ||
                             is_punct(next, ";") || is_punct(next, ":") ||
                             is_punct(next, "(");
      if (decl_prev && decl_next) locals.insert(std::string(t[j].text));
    }

    // Pass 2: bare writes to by-ref-captured non-local names. A subscript
    // write (`slots[w] = ...`) is the per-worker-slot idiom and passes.
    for (std::size_t j = body + 1; j + 1 < body_end; ++j) {
      if (!is_any_ident(t[j]) || is_cpp_keyword(t[j].text)) continue;
      const std::string_view name = t[j].text;
      const bool captured_ref =
          in_set(by_ref, name) ||
          (default_by_ref && !in_set(by_value, name));
      if (!captured_ref || in_set(locals, name)) continue;
      const Token& prev = t[j - 1];
      const Token& next = t[j + 1];
      if (is_punct(prev, ".") || is_punct(prev, "->")) continue;
      if (is_punct(next, "[")) continue;  // per-worker slot
      // Declarations inside the body were collected in pass 1; a name
      // that is also a local is already excluded above.
      bool writes = false;
      std::string via;
      if (next.kind == TokKind::kPunct && in_set(kAssignOps, next.text)) {
        writes = true;
        via = cat({"'", name, " ", next.text, "'"});
      } else if (is_punct(next, "++") || is_punct(next, "--") ||
                 is_punct(prev, "++") || is_punct(prev, "--")) {
        writes = true;
        via = cat({"'", name, "' increment/decrement"});
      } else if ((is_punct(next, ".") || is_punct(next, "->")) &&
                 j + 3 < body_end && is_any_ident(t[j + 2]) &&
                 in_set(kMutatingMembers, t[j + 2].text) &&
                 is_punct(t[j + 3], "(")) {
        writes = true;
        via = cat({"'", name, ".", t[j + 2].text, "(...)'"});
      }
      if (!writes) continue;
      ctx.report(
          t[j].line, t[j].col, "S4",
          cat({"WorkerPool callback mutates by-reference capture ", via,
               " outside the per-worker-slot idiom — concurrent workers "
               "race on it and the merge order becomes an observable"}),
          "write through a per-worker slot (`out[w] = ...`) and merge "
          "after run() returns, or use an atomic cursor");
    }
  }
}

}  // namespace lcs::lint::detail
