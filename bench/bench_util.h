/// \file bench_util.h
/// Shared scaffolding for the experiment benches (see EXPERIMENTS.md): the
/// standard simulator setup plus thin wrappers that resolve the historical
/// bench instances through the scenario registry (src/scenario/) —
/// benches, examples, tests, CI, and `lcs_run` all share one scenario
/// vocabulary. Every bench runs each configuration once
/// (Iterations(1)) — the measured quantities are *round counts and shortcut
/// quality*, which are deterministic given the seed, not wall time.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <utility>

#include "congest/network.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "graph/partition.h"
#include "scenario/scenario.h"
#include "tree/bfs_tree.h"

namespace lcs::bench {

/// A graph family at a target scale, with a natural benign partition.
struct Instance {
  Graph graph;
  Partition partition;
  std::string name;
};

/// Resolve any scenario spec to a bench instance; `name` overrides the
/// family name in bench labels.
inline Instance instance_from_spec(const std::string& spec,
                                   std::string name = {}) {
  scenario::Scenario sc = scenario::make_scenario(spec);
  return {std::move(sc.graph), std::move(sc.partition),
          name.empty() ? std::move(sc.family) : std::move(name)};
}

/// side*side nodes; partitions are random connected BFS blobs of ~side
/// nodes each (so #parts ~ side ~ sqrt(n)).
inline Instance grid_instance(NodeId side, std::uint64_t seed) {
  return instance_from_spec(
      "grid:w=" + std::to_string(side) + ",parts=" + std::to_string(side) +
          ",pseed=" + std::to_string(seed),
      "grid");
}

inline Instance torus_instance(NodeId side, std::uint64_t seed) {
  return instance_from_spec(
      "torus:w=" + std::to_string(side) + ",parts=" + std::to_string(side) +
          ",pseed=" + std::to_string(seed),
      "torus");
}

inline Instance genus_instance(NodeId side, int genus, std::uint64_t seed) {
  return instance_from_spec(
      "genus:w=" + std::to_string(side) + ",g=" + std::to_string(genus) +
          ",seed=" + std::to_string(seed) + ",parts=" + std::to_string(side) +
          ",pseed=" + std::to_string(seed + 1),
      "genus" + std::to_string(genus));
}

inline Instance er_instance(NodeId n, std::uint64_t seed) {
  const auto parts = std::max<PartId>(
      2, static_cast<PartId>(std::sqrt(static_cast<double>(n))));
  return instance_from_spec(
      "er:n=" + std::to_string(n) + ",deg=6,seed=" + std::to_string(seed) +
          ",parts=" + std::to_string(parts) +
          ",pseed=" + std::to_string(seed + 1),
      "erdos-renyi");
}

inline Instance wheel_instance(NodeId n, PartId arcs) {
  return instance_from_spec(
      "wheel:n=" + std::to_string(n) + ",arcs=" + std::to_string(arcs),
      "wheel-arcs");
}

inline Instance lower_bound_instance(NodeId k) {
  return instance_from_spec("lb:paths=" + std::to_string(k), "lower-bound");
}

/// Simulator + distributed BFS tree for an instance. Benches measure
/// engine throughput and round counts, not protocol conformance, so the
/// CONGEST validation checks are off (they are on in every test; toggling
/// them does not change behavior or accounting for conforming protocols).
struct Rig {
  congest::Network net;
  SpanningTree tree;
  explicit Rig(const Graph& g, NodeId root = 0)
      : net(g), tree((net.set_validate(false), build_bfs_tree(net, root))) {}
};

}  // namespace lcs::bench

/// Standard main for all bench binaries.
#define LCS_BENCH_MAIN()                                  \
  int main(int argc, char** argv) {                       \
    ::benchmark::Initialize(&argc, argv);                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                \
    ::benchmark::Shutdown();                              \
    return 0;                                             \
  }
