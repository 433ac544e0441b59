/// \file compare.h
/// `lcs_bench compare`: A/B runs of two builds of the benchmark, judged by
/// the rule every claimed gain and every no-regression statement must meet.
#pragma once

#include "args.h"

namespace lcs::bench {

/// `lcs_bench compare --base=BIN_DIR --head=BIN_DIR [--pairs=10] [--seed=1]`,
/// run from the repository root: every workload, the run length and the
/// bounds come from BENCHMARK.json. Returns 1 when some metric regressed,
/// 0 otherwise.
int compare_main(const Args& args);

}  // namespace lcs::bench
