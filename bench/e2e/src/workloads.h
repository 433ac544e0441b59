/// \file workloads.h
/// The benchmark's workloads and the inputs each one generates from the
/// run's seed. README.md records why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lcs::bench {

/// One engine run, in the lcs_run vocabulary.
struct Instance {
  std::string algo;
  std::string spec;
  int threads = 1;
  std::uint64_t seed = 1;  ///< algorithm seed
};

struct Workload {
  std::string name;
  bool serve = false;  ///< traffic through lcs_serve instead of engine runs
  std::string algo;    ///< engine workloads only, as are the fields below
  int threads = 1;
  /// Distinct inputs a run cycles through; the first cycle always
  /// completes, so counts over it depend on the seed alone.
  int instances = 0;
};

/// Inputs per engine workload under --smoke.
inline constexpr int kSmokeInstances = 2;

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Input `i` of an engine workload under `seed`.
Instance engine_instance(const Workload& w, std::uint64_t seed, int i,
                         bool smoke);

/// A distinct serve-mix request (its `id` is added per send).
struct ServeKey {
  Instance run;
  std::string backend;  ///< algo "shortcut" only
  std::string churn;    ///< algo "churn" only
  bool timing = true;
  bool validate = false;
  std::string request(std::string_view id) const;
};

/// The corpus the daemon preloads; every key uses one of these scenarios.
/// It is the same for every seed: the seed draws the traffic, not the
/// corpus, so runs differ in what is asked rather than in graph sizes.
std::vector<std::string> serve_scenarios(bool smoke);

/// The stratified key set: the same algorithm, backend and scenario for
/// every seed; the seed draws the algorithm seeds and the churn stream.
std::vector<ServeKey> serve_keys(std::uint64_t seed, bool smoke);

/// Request order of one pass: every key once, then every key again, each
/// sweep in its own seeded order.
std::vector<std::size_t> serve_pass(std::uint64_t seed, std::size_t keys);

}  // namespace lcs::bench
