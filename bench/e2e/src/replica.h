/// \file replica.h
/// Traced replicas of the engine runs `driver::run_document` makes for
/// `mst` and `aggregate`: the same public library calls in the same order
/// (src/mst/boruvka_shortcut.cpp, src/shortcut/find_shortcut.cpp,
/// src/apps/aggregate.cpp), each wrapped in a span. A replica is trusted
/// only when its counts and result equal the untraced run's; when the
/// library's algorithm changes and the replica falls behind, the run says
/// so (trace.replica_ok = 0) instead of reporting numbers for the wrong code.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "scenario/scenario.h"
#include "trace.h"
#include "workloads.h"

namespace lcs::bench {

/// Work counters of the FindShortcut layer over one run.
struct FindCounters {
  std::int64_t calls = 0;              ///< find_shortcut_doubling calls
  std::int64_t trials = 0;             ///< doubling trials
  std::int64_t successful_trials = 0;
  std::int64_t iterations = 0;         ///< core + verification iterations
  std::int64_t part_iterations = 0;    ///< active parts summed over iterations
  std::int64_t parts_retired = 0;      ///< parts Verification accepted
};

struct ReplicaRun {
  /// setup_rounds / setup_messages plus the integer fields of the report's
  /// `result` object, under the report's names.
  std::map<std::string, std::int64_t> result;
  bool oracle_ok = false;  ///< MST edges = Kruskal; leaders = part minimum
  std::string why;         ///< oracle mismatch, when there is one
  FindCounters find;
};

/// Runs `inst` (algo mst or aggregate) on `sc` under `tracer`.
ReplicaRun run_replica(Tracer& tracer, const scenario::Scenario& sc,
                       const Instance& inst);

}  // namespace lcs::bench
