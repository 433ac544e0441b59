#include "lint/parse.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "lint/lexer.h"
#include "util/cast.h"

namespace lcs::lint {

namespace {

bool tok_is(const Token& t, TokKind k, std::string_view text) {
  return t.kind == k && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return tok_is(t, TokKind::kPunct, text);
}
bool is_ident(const Token& t, std::string_view text) {
  return tok_is(t, TokKind::kIdentifier, text);
}

constexpr std::array<std::string_view, 94> kKeywords = {
    "alignas",      "alignof",      "and",        "and_eq",
    "asm",          "auto",         "bitand",     "bitor",
    "bool",         "break",        "case",       "catch",
    "char",         "char16_t",     "char32_t",   "char8_t",
    "class",        "co_await",     "co_return",  "co_yield",
    "compl",        "concept",      "const",      "const_cast",
    "consteval",    "constexpr",    "constinit",  "continue",
    "decltype",     "default",      "delete",     "do",
    "double",       "dynamic_cast", "else",       "enum",
    "explicit",     "export",       "extern",     "false",
    "final",        "float",        "for",        "friend",
    "goto",         "if",           "inline",     "int",
    "long",         "mutable",      "namespace",  "new",
    "noexcept",     "not",          "not_eq",     "nullptr",
    "operator",     "or",           "or_eq",      "override",
    "private",      "protected",    "public",     "register",
    "reinterpret_cast", "requires", "return",     "short",
    "signed",       "sizeof",       "static",     "static_assert",
    "static_cast",  "struct",       "switch",     "template",
    "this",         "thread_local", "throw",      "true",
    "try",          "typedef",      "typeid",     "typename",
    "union",        "unsigned",     "using",      "virtual",
    "void",         "volatile",     "wchar_t",    "while",
    "xor",          "xor_eq",
};

/// Skip a balanced `<...>` starting at `i` (toks[i] == "<"); returns the
/// index one past the closing `>`. `>>` closes two levels. Bails at `;`
/// or `{` (comparison, not template args) returning the bail position.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<") ++depth;
    else if (t.text == ">") { if (--depth == 0) return i + 1; }
    else if (t.text == ">>") { depth -= 2; if (depth <= 0) return i + 1; }
    else if (t.text == ";" || t.text == "{") return i;
  }
  return i;
}

/// Skip a balanced group: toks[i] is the opener ("(", "{", "[").
/// Returns the index one past the matching closer, or toks.size().
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t i,
                          std::string_view open, std::string_view close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], open)) ++depth;
    else if (is_punct(toks[i], close)) {
      if (--depth == 0) return i + 1;
    }
  }
  return i;
}

/// Index one past the end of the directive starting at the `#` in
/// toks[i]: the first later token flagged bol (logical line start).
std::size_t directive_end(const std::vector<Token>& toks, std::size_t i) {
  for (++i; i < toks.size(); ++i) {
    if (toks[i].bol) return i;
  }
  return toks.size();
}

/// True when the identifier at `i` is the member of a `.`/`->` access,
/// or is `std::`-rooted (walks the qualifier chain back to its head).
bool is_excluded_ref(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  const Token& prev = toks[i - 1];
  if (is_punct(prev, ".") || is_punct(prev, "->")) return true;
  // Walk `A::B::name` back to A; exclude iff the chain is rooted at std.
  std::size_t j = i;
  while (j >= 2 && is_punct(toks[j - 1], "::") &&
         toks[j - 2].kind == TokKind::kIdentifier) {
    j -= 2;
  }
  return j != i && toks[j].text == "std";
}

struct Scope {
  enum Kind { kNamespace, kType, kExtern } kind = kNamespace;
  bool anonymous = false;  ///< `namespace {`
};

}  // namespace

bool is_cpp_keyword(std::string_view name) {
  return std::find(kKeywords.begin(), kKeywords.end(), name) !=
         kKeywords.end();
}

std::vector<Ref> collect_refs(const std::vector<Token>& toks) {
  std::vector<Ref> out;
  std::map<std::string_view, std::size_t> seen;  // name -> index in out
  const auto note = [&](const Token& t) {
    const auto [it, inserted] = seen.emplace(t.text, out.size());
    if (inserted) {
      out.push_back(Ref{std::string(t.text), 1});
    } else {
      ++out[it->second].count;
    }
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct && t.text == "#" && t.bol &&
        i + 1 < toks.size()) {
      const Token& d = toks[i + 1];
      if (is_ident(d, "include")) {
        // `#include <vector>` must not count as a use of `vector`.
        i = directive_end(toks, i) - 1;
        continue;
      }
      if (is_ident(d, "define") && i + 2 < toks.size()) {
        // The macro NAME is a definition, not a use; its parameters (if
        // function-like: `(` abuts the name) are local. Body identifiers
        // are genuine refs.
        const Token& name = toks[i + 2];
        const std::size_t end = directive_end(toks, i);
        std::size_t b = i + 3;
        std::set<std::string_view> params;
        if (b < end && is_punct(toks[b], "(") &&
            toks[b].line == name.line &&
            toks[b].col ==
                name.col + util::checked_cast<int>(name.text.size())) {
          const std::size_t close = skip_balanced(toks, b, "(", ")");
          for (std::size_t p = b + 1; p + 1 < close; ++p) {
            if (toks[p].kind == TokKind::kIdentifier)
              params.insert(toks[p].text);
          }
          b = close;
        }
        for (std::size_t p = b; p < end; ++p) {
          const Token& bt = toks[p];
          if (bt.kind != TokKind::kIdentifier || is_cpp_keyword(bt.text) ||
              params.count(bt.text) != 0 || is_excluded_ref(toks, p)) {
            continue;
          }
          note(bt);
        }
        i = end - 1;
        continue;
      }
      // Other directives (#if defined(FOO), #ifdef FOO, ...): their
      // identifiers are real macro refs; fall through token by token.
      continue;
    }
    if (t.kind != TokKind::kIdentifier || is_cpp_keyword(t.text) ||
        is_excluded_ref(toks, i)) {
      continue;
    }
    note(t);
  }
  return out;
}

namespace {

bool in_anonymous_ns(const std::vector<Scope>& scopes) {
  for (const Scope& s : scopes) {
    if (s.kind == Scope::kNamespace && s.anonymous) return true;
  }
  return false;
}

}  // namespace

Outline parse_outline(const std::vector<Token>& raw) {
  // Comments are irrelevant to the outline; drop them up front so the
  // scanner below can look at neighbors without skipping.
  std::vector<Token> toks;
  toks.reserve(raw.size());
  for (const Token& t : raw) {
    if (t.kind != TokKind::kComment) toks.push_back(t);
  }

  Outline out;
  std::vector<Scope> scopes;

  const auto add = [&](DeclKind kind, const Token& name, bool file_local) {
    // A keyword can never be a project symbol; recording one would feed
    // U1 garbage (e.g. a missed specifier).
    if (is_cpp_keyword(name.text)) return;
    Decl d;
    d.kind = kind;
    d.name = std::string(name.text);
    d.line = name.line;
    d.col = name.col;
    d.file_local = file_local || in_anonymous_ns(scopes);
    out.decls.push_back(std::move(d));
  };

  // Skip to the `;` terminating the current declaration, tolerating
  // balanced braces (`= {...}` initializers) and parens on the way.
  const auto skip_to_semi = [&](std::size_t i) {
    int brace = 0;
    int paren = 0;
    for (; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "{") ++brace;
      else if (t.text == "}") --brace;
      else if (t.text == "(") ++paren;
      else if (t.text == ")") --paren;
      else if (t.text == ";" && brace <= 0 && paren <= 0) return i + 1;
    }
    return i;
  };

  std::size_t i = 0;
  while (i < toks.size()) {
    const Token& t = toks[i];

    // ---- Preprocessor directives ----
    if (t.kind == TokKind::kPunct && t.text == "#" && t.bol) {
      const std::size_t end = directive_end(toks, i);
      if (i + 2 < toks.size() && is_ident(toks[i + 1], "define") &&
          toks[i + 2].kind == TokKind::kIdentifier) {
        add(DeclKind::kMacro, toks[i + 2], /*file_local=*/false);
      }
      i = end;
      continue;
    }

    // ---- Scope structure ----
    if (is_punct(t, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      ++i;
      if (i < toks.size() && is_punct(toks[i], ";")) ++i;  // `};`
      continue;
    }

    // Inside a type body nothing is an export: swallow tokens (tracking
    // nested braces) until the body closes.
    if (!scopes.empty() && scopes.back().kind == Scope::kType) {
      if (is_punct(t, "{")) {
        i = skip_balanced(toks, i, "{", "}");
        continue;
      }
      ++i;
      continue;
    }

    if (is_ident(t, "namespace")) {
      // namespace A::B { ... } | namespace { ... } | namespace A = B;
      std::size_t j = i + 1;
      bool named = false;
      while (j < toks.size() && toks[j].kind == TokKind::kIdentifier) {
        named = true;
        ++j;
        if (j < toks.size() && is_punct(toks[j], "::")) ++j;
        else break;
      }
      if (j < toks.size() && is_punct(toks[j], "=")) {
        i = skip_to_semi(j);
        continue;
      }
      if (j < toks.size() && is_punct(toks[j], "{")) {
        if (named) {
          add(DeclKind::kNamespace, toks[i + 1], /*file_local=*/false);
        }
        scopes.push_back(Scope{Scope::kNamespace, !named});
        i = j + 1;
        continue;
      }
      i = j + 1;
      continue;
    }

    if (is_ident(t, "extern") && i + 1 < toks.size() &&
        toks[i + 1].kind == TokKind::kString) {
      if (i + 2 < toks.size() && is_punct(toks[i + 2], "{")) {
        scopes.push_back(Scope{Scope::kExtern, false});
        i += 3;
      } else {
        i += 2;  // extern "C" on a single declaration: treat as specifier
      }
      continue;
    }

    if (is_ident(t, "using")) {
      // using NAME = ...; -> alias. using namespace X; / using X::y; -> skip.
      if (i + 2 < toks.size() && toks[i + 1].kind == TokKind::kIdentifier &&
          !is_cpp_keyword(toks[i + 1].text) && is_punct(toks[i + 2], "=")) {
        add(DeclKind::kAlias, toks[i + 1], /*file_local=*/false);
      }
      i = skip_to_semi(i);
      continue;
    }

    if (is_ident(t, "typedef")) {
      const std::size_t semi = skip_to_semi(i) - 1;
      // Name: identifier right before the `;` (covers the common forms;
      // function-pointer typedefs name the identifier after `(*`).
      std::size_t name_at = toks.size();
      for (std::size_t j = i + 1; j < semi; ++j) {
        if (toks[j].kind == TokKind::kIdentifier &&
            !is_cpp_keyword(toks[j].text)) {
          name_at = j;
        }
        if (is_punct(toks[j], "(") && j + 2 < semi &&
            is_punct(toks[j + 1], "*") &&
            toks[j + 2].kind == TokKind::kIdentifier) {
          name_at = j + 2;
          break;
        }
      }
      if (name_at < toks.size()) {
        add(DeclKind::kAlias, toks[name_at], /*file_local=*/false);
      }
      i = semi + 1;
      continue;
    }

    if (is_ident(t, "template")) {
      ++i;
      if (i < toks.size() && is_punct(toks[i], "<")) i = skip_angles(toks, i);
      continue;
    }

    if (is_ident(t, "static_assert")) {
      i = skip_to_semi(i);
      continue;
    }

    if (is_ident(t, "class") || is_ident(t, "struct") ||
        is_ident(t, "union") || is_ident(t, "enum")) {
      std::size_t j = i + 1;
      if (j < toks.size() &&
          (is_ident(toks[j], "class") || is_ident(toks[j], "struct"))) {
        ++j;  // enum class / enum struct
      }
      for (;;) {
        if (j < toks.size() && is_punct(toks[j], "[[")) {
          while (j < toks.size() && !is_punct(toks[j], "]]")) ++j;
          ++j;
          continue;
        }
        // `struct alignas(64) Name` — alignas is a specifier, not the name.
        if (j + 1 < toks.size() && is_ident(toks[j], "alignas") &&
            is_punct(toks[j + 1], "(")) {
          j = skip_balanced(toks, j + 1, "(", ")");
          continue;
        }
        break;
      }
      if (j >= toks.size() || toks[j].kind != TokKind::kIdentifier) {
        // Anonymous type: skip its body if any, then the declaration.
        while (j < toks.size() && !is_punct(toks[j], "{") &&
               !is_punct(toks[j], ";")) {
          ++j;
        }
        if (j < toks.size() && is_punct(toks[j], "{")) {
          j = skip_balanced(toks, j, "{", "}");
        }
        i = skip_to_semi(j > i ? j - 1 : i);
        continue;
      }
      const Token& name = toks[j];
      ++j;
      if (j < toks.size() && is_punct(toks[j], ";")) {
        add(DeclKind::kType, name, /*file_local=*/false);  // forward declaration
        i = j + 1;
        continue;
      }
      // Base clause / enum underlying type up to the body.
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";")) {
        if (is_punct(toks[j], "<")) {
          j = skip_angles(toks, j);
          continue;
        }
        ++j;
      }
      if (j < toks.size() && is_punct(toks[j], "{")) {
        add(DeclKind::kType, name, /*file_local=*/false);
        scopes.push_back(Scope{Scope::kType, false});
        i = j + 1;
        continue;
      }
      // `struct Foo bar;` style elaborated declarator — treat as variable.
      i = skip_to_semi(j);
      continue;
    }

    // ---- Declarator scan: function or variable ----
    if (t.kind == TokKind::kIdentifier || is_punct(t, "::") ||
        is_punct(t, "[[")) {
      bool file_local = false;  // `static` at namespace scope
      std::size_t name_at = toks.size();
      bool name_qualified = false;
      std::size_t j = i;
      bool decided = false;
      while (j < toks.size() && !decided) {
        const Token& u = toks[j];
        if (is_punct(u, "[[")) {
          while (j < toks.size() && !is_punct(toks[j], "]]")) ++j;
          ++j;
          continue;
        }
        if (u.kind == TokKind::kIdentifier) {
          if (u.text == "static") file_local = true;
          if (u.text == "operator") {
            // Operators are reached via their operands, not by name:
            // skip the whole declaration / definition.
            std::size_t k = j;
            while (k < toks.size() && !is_punct(toks[k], "(")) ++k;
            k = skip_balanced(toks, k, "(", ")");
            while (k < toks.size() && !is_punct(toks[k], "{") &&
                   !is_punct(toks[k], ";")) {
              ++k;
            }
            if (k < toks.size() && is_punct(toks[k], "{")) {
              k = skip_balanced(toks, k, "{", "}");
            } else if (k < toks.size()) {
              ++k;
            }
            j = k;
            name_at = toks.size();
            decided = true;
            break;
          }
          if (!is_cpp_keyword(u.text)) {
            name_at = j;
            name_qualified =
                j > 0 && is_punct(toks[j - 1], "::");
          }
          ++j;
          continue;
        }
        if (is_punct(u, "<")) {
          j = skip_angles(toks, j);
          continue;
        }
        if (is_punct(u, "(")) {
          // Function declarator (or constructor-style init; both resolve
          // the same way for the outline: NAME + parameter list).
          const std::size_t after = skip_balanced(toks, j, "(", ")");
          // Trailer: const/noexcept/-> T/= delete/etc. until `{` or `;`.
          std::size_t k = after;
          while (k < toks.size()) {
            if (is_punct(toks[k], "{") || is_punct(toks[k], ";")) break;
            if (is_punct(toks[k], "<")) {
              k = skip_angles(toks, k);
              continue;
            }
            ++k;
          }
          if (name_at < toks.size() && !name_qualified) {
            add(DeclKind::kFunction, toks[name_at], file_local);
          }
          if (k < toks.size() && is_punct(toks[k], "{")) {
            j = skip_balanced(toks, k, "{", "}");
          } else {
            j = k < toks.size() ? k + 1 : k;
          }
          decided = true;
          break;
        }
        if (is_punct(u, "=") || is_punct(u, "{") || is_punct(u, ";") ||
            is_punct(u, "[")) {
          if (name_at < toks.size() && !name_qualified) {
            add(DeclKind::kVariable, toks[name_at], file_local);
          }
          j = skip_to_semi(j);
          decided = true;
          break;
        }
        // `*`, `&`, `&&`, `::`, `,`, `const` handled above — keep going.
        ++j;
      }
      i = decided ? j : j + 1;
      continue;
    }

    ++i;
  }

  return out;
}

}  // namespace lcs::lint
