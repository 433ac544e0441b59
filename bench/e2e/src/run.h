/// \file run.h
/// One benchmark run of one workload: generate the inputs from the seed,
/// measure for the requested time, check every output, and report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace lcs::bench {

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;  ///< per-layer metrics from a traced run
  bool smoke = false;  ///< tiny inputs, minimum work, same code paths
  std::string out_dir = "bench/e2e/out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Sample counts, quartiles, tails and exact totals, as one JSON line.
  std::string detail;
};

/// Throws when nothing could be measured (e.g. the daemon cannot start).
RunResult run_workload(const RunConfig& cfg);

/// The run's last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(const RunResult& r);

}  // namespace lcs::bench
