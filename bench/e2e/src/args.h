/// \file args.h
/// Command-line options as `--key=value`, `--key value` or a bare `--flag`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lcs::bench {

class Args {
 public:
  /// Parses argv[first..argc). Throws CheckFailure on a non-option word.
  Args(int argc, char** argv, int first);

  bool has(std::string_view key) const;
  std::string get(std::string_view key, std::string_view fallback) const;
  std::int64_t get_int(std::string_view key, std::int64_t fallback) const;

  /// Throws CheckFailure naming the first option not in `known`.
  void check_known(const std::vector<std::string_view>& known) const;

 private:
  std::vector<std::pair<std::string, std::string>> options_;
};

}  // namespace lcs::bench
