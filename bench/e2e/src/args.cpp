#include "args.h"

#include <algorithm>
#include <charconv>

#include "util/check.h"

namespace lcs::bench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    LCS_CHECK(arg.substr(0, 2) == "--",
              "unexpected argument '" + std::string(arg) + "' (see --help)");
    const std::string_view body = arg.substr(2);
    if (const auto eq = body.find('='); eq != std::string_view::npos) {
      options_.emplace_back(body.substr(0, eq), body.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      options_.emplace_back(body, argv[++i]);
    } else {
      options_.emplace_back(body, "1");
    }
  }
}

bool Args::has(std::string_view key) const {
  return std::any_of(options_.begin(), options_.end(),
                     [&](const auto& kv) { return kv.first == key; });
}

std::string Args::get(std::string_view key, std::string_view fallback) const {
  for (auto it = options_.rbegin(); it != options_.rend(); ++it)
    if (it->first == key) return it->second;
  return std::string(fallback);
}

std::int64_t Args::get_int(std::string_view key, std::int64_t fallback) const {
  if (!has(key)) return fallback;
  const std::string text = get(key, "");
  std::int64_t value = 0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), value);
  LCS_CHECK(res.ec == std::errc() && res.ptr == text.data() + text.size(),
            "--" + std::string(key) + " expects an integer, got '" + text + "'");
  return value;
}

void Args::check_known(const std::vector<std::string_view>& known) const {
  for (const auto& [k, v] : options_)
    LCS_CHECK(std::find(known.begin(), known.end(), k) != known.end(),
              "unknown option '--" + k + "' (see --help)");
}

}  // namespace lcs::bench
