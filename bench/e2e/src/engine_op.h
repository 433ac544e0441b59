/// \file engine_op.h
/// One engine operation, run in a fresh child process so set-up, memory
/// and timing belong to that operation alone.
///
/// A *timed* op is the lcs_run path: resolve the scenario (set-up), then
/// `driver::run_document` with validate=false and timing=false, handed the
/// resolved scenario through `RunHooks::resolve_scenario` so set-up stays
/// outside the timed call. `run_document` builds the Network and the BFS
/// tree itself, so their cost is part of the run, not of set-up. A *traced*
/// op runs the replica (replica.h) under a Tracer instead. Every check runs
/// after the timed call returns.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "args.h"
#include "replica.h"
#include "trace.h"
#include "workloads.h"

namespace lcs::bench {

struct EngineOp {
  bool ok = false;  ///< ran, and every check passed
  std::string why;  ///< first failed check
  double setup_s = 0.0;  ///< timed: make_scenario, timed inside the child
  double run_s = 0.0;    ///< the engine run after set-up
  double peak_rss_mb = 0.0;
  std::uint64_t payload_hash = 0;  ///< timed: FNV-1a of the report bytes
  /// setup_rounds / setup_messages and the report's integer result fields.
  std::map<std::string, std::int64_t> result;
  // Traced ops only.
  FindCounters find;
  std::vector<Span> spans;
};

/// Runs `inst` in a child. `validate` re-runs it afterwards with
/// validate=true at one thread, which must pass the driver's oracle and
/// repeat the timed run's counts (so thread count cannot change them).
EngineOp run_engine_op(const Instance& inst, bool traced, bool validate);

/// The child side: `lcs_bench --child timed|traced --algo .. --spec ..
/// --threads .. --seed .. [--validate]`. Prints one JSON line.
int child_main(const Args& args);

}  // namespace lcs::bench
