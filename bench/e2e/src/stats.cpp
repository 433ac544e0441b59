#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/check.h"

namespace lcs::bench {

double median(std::vector<double> v) {
  LCS_CHECK(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::array<double, 3> quartiles(std::vector<double> v) {
  LCS_CHECK(!v.empty(), "quartiles of an empty sample");
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> q{};
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

TailPercentile tail_percentile(std::vector<double> v) {
  LCS_CHECK(!v.empty(), "percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  TailPercentile out;
  for (const int p : {50, 80, 90, 95, 99}) {
    // Nearest rank: the ceil(p/100 * n)-th smallest value.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
    if (p != 50 && n - static_cast<double>(idx + 1) < 10.0) break;
    out = {p, v[idx]};
  }
  return out;
}

}  // namespace lcs::bench
