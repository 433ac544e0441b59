/// \file main.cpp
/// lcs_bench: the repository's end-to-end benchmark (see ../README.md).
#include <filesystem>
#include <iostream>
#include <string>

#include "args.h"
#include "compare.h"
#include "engine_op.h"
#include "run.h"
#include "stats.h"
#include "trace.h"
#include "util/check.h"
#include "workloads.h"

namespace {

constexpr const char* kUsage = R"(usage:
  lcs_bench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
  lcs_bench --smoke            every workload at tiny sizes, untraced and traced
  lcs_bench --selftest         span self-time and quartile arithmetic
  lcs_bench compare --base=BIN_DIR --head=BIN_DIR [--pairs=10] [--seed=1]
                               (from the repository root; reads BENCHMARK.json)

Workloads: mst-er, mst-grid, aggregate-er, serve-mix. A run prints one JSON
line of detail, then its result as the last line:
  {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. Traces go to DIR/<workload>.trace.json (default DIR:
bench/e2e/out).
)";

using lcs::bench::Args;

int selftest() {
  int failures = lcs::bench::trace_selftest();
  // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
  const auto q = lcs::bench::quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  if (q[0] != 2.75 || q[1] != 5.5 || q[2] != 8.25) {
    std::cerr << "selftest: quartiles wrong\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

bool run_and_print(const lcs::bench::RunConfig& cfg) {
  const lcs::bench::RunResult r = lcs::bench::run_workload(cfg);
  std::cout << r.detail << "\n" << lcs::bench::result_line(r) << std::endl;
  return r.failed == 0;
}

int bench_main(const Args& args) {
  args.check_known({"workload", "seed", "seconds", "trace", "smoke", "out-dir"});
  lcs::bench::RunConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.seconds = static_cast<double>(args.get_int("seconds", 20));
  cfg.trace = args.get_int("trace", 0) != 0;
  cfg.smoke = args.has("smoke");
  cfg.out_dir = args.get("out-dir", "bench/e2e/out");
  LCS_CHECK(cfg.seconds >= 0, "--seconds must not be negative");
  std::filesystem::create_directories(cfg.out_dir);

  if (cfg.smoke && !args.has("workload")) {
    bool all_ok = true;
    for (const lcs::bench::Workload& w : lcs::bench::workloads()) {
      for (const bool trace : {false, true}) {
        cfg.workload = &w;
        cfg.trace = trace;
        all_ok = run_and_print(cfg) && all_ok;
      }
    }
    return all_ok ? 0 : 1;
  }
  const std::string name = args.get("workload", "");
  cfg.workload = lcs::bench::find_workload(name);
  LCS_CHECK(cfg.workload != nullptr,
            "unknown or missing --workload '" + name +
                "' (mst-er, mst-grid, aggregate-er, serve-mix)");
  run_and_print(cfg);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string first = argc > 1 ? argv[1] : "";
    if (first == "compare")
      return lcs::bench::compare_main(Args(argc, argv, 2));
    const Args args(argc, argv, 1);
    if (args.has("help") || argc == 1) {
      std::cout << kUsage;
      return argc == 1 ? 2 : 0;
    }
    if (args.has("child")) return lcs::bench::child_main(args);
    if (args.has("selftest")) return selftest();
    return bench_main(args);
  } catch (const std::exception& e) {
    std::cerr << "lcs_bench: " << e.what() << "\n";
    return 2;
  }
}
