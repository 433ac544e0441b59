/// \file stats.h
/// Order statistics for reporting timings.
#pragma once

#include <array>
#include <vector>

namespace lcs::bench {

/// Median; requires a non-empty sample.
double median(std::vector<double> v);

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so the
/// spreads printed here match a reader's own check. A single value is its
/// own quartiles.
std::array<double, 3> quartiles(std::vector<double> v);

/// The highest of the 50th/80th/90th/95th/99th percentiles that still has
/// at least ten samples above it (nearest rank); 50 when none has.
struct TailPercentile {
  int percentile = 50;
  double value = 0.0;
};
TailPercentile tail_percentile(std::vector<double> v);

}  // namespace lcs::bench
