/// \file parse.h
/// Declaration-level outline parser for the lcs_lint dead-symbol rule.
///
/// This is not a C++ parser. It is a scope-stack walk over the token
/// stream (lint/lexer.h) that recovers exactly what U1 (dead
/// file-external symbol) needs and nothing more:
///
///  - parse_outline(): which *namespace-scope* symbols a file declares
///    or defines (types, functions, aliases, variables, macros), where,
///    and whether each is file-local — U1's candidates;
///  - collect_refs(): how many times a file references each identifier.
///    Identifiers in a macro's replacement text count too, which is how
///    U1 keeps a helper alive when its only caller is a macro expansion.
///
/// Member declarations inside class bodies are deliberately not
/// indexed: members are reached through their type, so the type name
/// is the export. Function and type *bodies* are skipped for decls but
/// scanned for refs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace lcs::lint {

enum class DeclKind {
  kNamespace,  ///< namespace NAME { (named namespaces only)
  kType,       ///< class / struct / enum / union NAME
  kFunction,   ///< NAME(...) declaration or definition
  kAlias,      ///< using NAME = ...; or typedef ... NAME;
  kVariable,   ///< namespace-scope variable / constant
  kMacro,      ///< #define NAME
};

/// One namespace-scope declaration recovered from a file.
struct Decl {
  DeclKind kind = DeclKind::kType;
  std::string name;        ///< unqualified name
  int line = 0;            ///< 1-based physical line of the name token
  int col = 0;
  bool file_local = false; ///< static or inside an anonymous namespace
};

/// The references to one identifier in a file. Identifiers inside
/// comments and string literals never count; neither do member accesses
/// (`x.foo`, `p->foo`) nor `std::`-qualified names — those resolve
/// through their object/namespace, not through a project header's
/// top-level export.
struct Ref {
  std::string name;
  int count = 0;  ///< total occurrences in the file
};

struct Outline {
  std::vector<Decl> decls;
};

/// Walk `toks` (from lex(), splice-aware) and recover the outline.
Outline parse_outline(const std::vector<Token>& toks);

/// Count the references to each distinct identifier, in order of first
/// use. See Ref for what is excluded. `#include` directives contribute
/// nothing (the header name in `#include <vector>` is not a use of
/// `vector`).
std::vector<Ref> collect_refs(const std::vector<Token>& toks);

/// True if `name` is a C++ keyword (or contextual keyword) — never a
/// project symbol.
bool is_cpp_keyword(std::string_view name);

}  // namespace lcs::lint
