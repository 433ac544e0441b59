/// \file json_util.h
/// Lookups on parsed JSON that fail loudly instead of returning null.
#pragma once

#include <string>
#include <string_view>

#include "util/check.h"
#include "util/json_reader.h"

namespace lcs::bench {

/// Member `key` of object `v`; throws CheckFailure when it is missing.
inline const JsonValue& member(const JsonValue& v, std::string_view key) {
  const JsonValue* m = v.find(key, "object");
  LCS_CHECK(m != nullptr, "missing member '" + std::string(key) + "'");
  return *m;
}

/// A number spelled without fraction or exponent.
inline bool is_integer(const JsonValue& v) {
  return v.type() == JsonValue::Type::Number &&
         v.raw_number().find_first_of(".eE") == std::string::npos;
}

}  // namespace lcs::bench
