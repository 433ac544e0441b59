#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "congest/process.h"
#include "engine_reference.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/core_fast.h"
#include "shortcut/core_slow.h"
#include "shortcut/existential.h"
#include "shortcut/shortcut.h"
#include "test_util.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/random.h"

namespace lcs {
namespace {

using testutil::Sim;
using testutil::central_block_count;

/// Count the parts whose tentative subgraph has at most 3*b_opt block
/// components, where b_opt is the existential block parameter at the same
/// congestion budget (the Lemma 5/7 "good part" notion).
std::int32_t count_good_parts(const Graph& g, const SpanningTree& tree,
                              const Partition& p, const Shortcut& s,
                              std::int32_t b_opt) {
  std::int32_t good = 0;
  for (PartId j = 0; j < p.num_parts; ++j)
    if (central_block_count(g, tree, p, s, j) <= 3 * b_opt) ++good;
  return good;
}

TEST(CoreSlow, MatchesCentralizedGreedyExactly) {
  // CoreSlow is deterministic and must reproduce the centralized bottom-up
  // greedy with threshold 2c, edge for edge.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = make_erdos_renyi(90, 0.05, seed);
    Sim setup(g);
    const auto p = make_random_bfs_partition(g, 12, seed + 1);
    for (const std::int32_t c : {1, 2, 4}) {
      const CoreResult result =
          core_slow(setup.net, setup.tree, p.part_of, c);
      const Shortcut expected =
          greedy_blocked_shortcut(g, setup.tree, p, 2 * c);
      EXPECT_EQ(result.shortcut.parts_on_edge, expected.parts_on_edge)
          << "seed " << seed << " c " << c;
    }
  }
}

TEST(CoreSlow, CongestionAtMost2c) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = make_grid(10, 10);
    Sim setup(g);
    const auto p = make_random_bfs_partition(g, 15, seed);
    for (const std::int32_t c : {1, 3}) {
      const CoreResult result =
          core_slow(setup.net, setup.tree, p.part_of, c);
      EXPECT_LE(congestion(g, p, result.shortcut), 2 * c);
    }
  }
}

TEST(CoreSlow, HalfTheParnersAreGoodAtExistentialBudget) {
  // Lemma 7: if a (c, b) shortcut exists, CoreSlow(c) leaves >= N/2 parts
  // with <= 3b blocks. Use the centralized sweep to find an existential
  // (c, b) pair, then check the guarantee.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(100, 0.05, seed);
    Sim setup(g);
    const auto p = make_random_bfs_partition(g, 14, seed + 2);
    for (const auto& point : pareto_sweep(g, setup.tree, p)) {
      const std::int32_t c = std::max(point.congestion, 1);
      const CoreResult result =
          core_slow(setup.net, setup.tree, p.part_of, c);
      const std::int32_t good = count_good_parts(g, setup.tree, p,
                                                 result.shortcut, point.block);
      EXPECT_GE(good, (p.num_parts + 1) / 2)
          << "seed " << seed << " c " << c << " b " << point.block;
    }
  }
}

TEST(CoreSlow, RoundsWithinDcBound) {
  const Graph g = make_grid(12, 12);
  Sim setup(g);
  const auto p = make_random_bfs_partition(g, 20, 3);
  for (const std::int32_t c : {1, 4}) {
    const std::int64_t before = setup.net.total_rounds();
    core_slow(setup.net, setup.tree, p.part_of, c);
    const std::int64_t rounds = setup.net.total_rounds() - before;
    EXPECT_LE(rounds, 3 * (setup.tree.height + 2) * (2 * c + 2));
  }
}

TEST(CoreSlow, InactiveNodesClaimNothing) {
  // Parts marked kNoPart must not appear in the output (the FindShortcut
  // iteration contract).
  const Graph g = make_grid(8, 8);
  Sim setup(g);
  auto p = make_random_bfs_partition(g, 8, 4);
  congest::PerNode<PartId> active = p.part_of;
  for (auto& j : active)
    if (j % 2 == 0) j = kNoPart;  // retire even parts
  const CoreResult result = core_slow(setup.net, setup.tree, active, 2);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    for (const PartId j :
         result.shortcut.parts_on_edge[static_cast<std::size_t>(e)])
      EXPECT_EQ(j % 2, 1);
}

TEST(CoreFast, CongestionAtMost8cAcrossSeeds) {
  const Graph g = make_grid(10, 10);
  Sim setup(g);
  const auto p = make_random_bfs_partition(g, 15, 1);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const std::int32_t c : {1, 3}) {
      const CoreResult result = core_fast(setup.net, setup.tree, p.part_of,
                                          CoreFastParams{c, 4.0, seed});
      EXPECT_LE(congestion(g, p, result.shortcut), 8 * c)
          << "seed " << seed << " c " << c;
    }
  }
}

TEST(CoreFast, HalfThePartsAreGoodAtExistentialBudget) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(100, 0.05, seed);
    Sim setup(g);
    const auto p = make_random_bfs_partition(g, 14, seed + 2);
    const auto point = best_existential_for_block(g, setup.tree, p, 4);
    const std::int32_t c = std::max(point.congestion, 1);
    const CoreResult result = core_fast(setup.net, setup.tree, p.part_of,
                                        CoreFastParams{c, 4.0, seed + 77});
    const std::int32_t good =
        count_good_parts(g, setup.tree, p, result.shortcut, point.block);
    EXPECT_GE(good, (p.num_parts + 1) / 2) << "seed " << seed;
  }
}

TEST(CoreFast, SamplingProbabilityClampsAndScales) {
  EXPECT_DOUBLE_EQ(core_fast_sampling_probability(1024, 1, 4.0), 1.0);
  const double p1 = core_fast_sampling_probability(1024, 100, 4.0);
  const double p2 = core_fast_sampling_probability(1024, 200, 4.0);
  EXPECT_NEAR(p1, 4.0 * 10.0 / 200.0, 1e-12);
  EXPECT_NEAR(p1 / p2, 2.0, 1e-9);
}

TEST(CoreFast, DeterministicGivenSeed) {
  const Graph g = make_grid(8, 8);
  const auto p = make_random_bfs_partition(g, 10, 5);
  Sim s1(g), s2(g);
  const CoreResult r1 =
      core_fast(s1.net, s1.tree, p.part_of, CoreFastParams{2, 4.0, 42});
  const CoreResult r2 =
      core_fast(s2.net, s2.tree, p.part_of, CoreFastParams{2, 4.0, 42});
  EXPECT_EQ(r1.shortcut.parts_on_edge, r2.shortcut.parts_on_edge);
  EXPECT_EQ(s1.net.total_rounds(), s2.net.total_rounds());
}

TEST(CoreFast, SeedIgnoredAtFullSampling) {
  // At p = 1 every part is sampled, so the seed changes nothing: not the
  // shortcut, not the rounds, not the messages (FindShortcut ends a trial
  // at its first stall on this). Below p = 1 it does.
  for (const auto& f : testutil::superstep_families()) {
    for (const std::int32_t c : {1, 4}) {
      ASSERT_GE(core_fast_sampling_probability(f.g.num_nodes(), c, 4.0), 1.0);
      Sim s1(f.g, f.root), s2(f.g, f.root);
      const CoreResult r1 = core_fast(s1.net, s1.tree, f.p.part_of,
                                      CoreFastParams{c, 4.0, 1});
      const CoreResult r2 = core_fast(s2.net, s2.tree, f.p.part_of,
                                      CoreFastParams{c, 4.0, 0xDEADBEEF});
      EXPECT_EQ(r1.shortcut.parts_on_edge, r2.shortcut.parts_on_edge)
          << f.name << " c " << c;
      EXPECT_EQ(s1.net.total_rounds(), s2.net.total_rounds());
      EXPECT_EQ(s1.net.total_messages(), s2.net.total_messages());
    }
  }
  const auto families = testutil::superstep_families();
  const auto& f = families.front();
  ASSERT_LT(core_fast_sampling_probability(f.g.num_nodes(), 1, 0.05), 1.0);
  Sim setup(f.g, f.root);
  const CoreResult first = core_fast(setup.net, setup.tree, f.p.part_of,
                                     CoreFastParams{1, 0.05, 1});
  bool seed_matters = false;
  for (std::uint64_t seed = 2; seed < 10 && !seed_matters; ++seed) {
    const CoreResult other = core_fast(setup.net, setup.tree, f.p.part_of,
                                       CoreFastParams{1, 0.05, seed});
    seed_matters =
        other.shortcut.parts_on_edge != first.shortcut.parts_on_edge;
  }
  EXPECT_TRUE(seed_matters);
}

TEST(CoreFast, LargeCongestionBudgetAssignsEverything) {
  // With c >= c_full nothing is ever unusable: every part gets its full
  // ancestor subgraph (block parameter 1).
  const Graph g = make_grid(7, 7);
  Sim setup(g);
  const auto p = make_random_bfs_partition(g, 6, 3);
  const Shortcut full = full_ancestor_shortcut(g, setup.tree, p);
  const std::int32_t c_full = congestion(g, p, full);
  const CoreResult result = core_fast(setup.net, setup.tree, p.part_of,
                                      CoreFastParams{c_full, 4.0, 9});
  EXPECT_EQ(result.shortcut.parts_on_edge, full.parts_on_edge);
  EXPECT_EQ(block_parameter(g, p, result.shortcut), 1);
}

TEST(CoreFast, UnusableEdgesBlockPropagation) {
  // On the lower-bound graph with tiny c, the tree edges above the columns
  // must saturate: the computed shortcut keeps congestion <= 8c even though
  // k parts would like every top edge.
  const NodeId k = 10;
  const Graph g = make_lower_bound_graph(k, k);
  Sim setup(g, g.num_nodes() - 1);
  const auto p = make_lower_bound_partition(k, k, g.num_nodes());
  const CoreResult result =
      core_fast(setup.net, setup.tree, p.part_of, CoreFastParams{1, 4.0, 3});
  EXPECT_LE(congestion(g, p, result.shortcut), 8);
}

// ---------------------------------------------------------------------------
// Host-counted cores against the engine references (engine_reference.h).
// On every reference family, with validation on, each core must put the
// reference's ids on every edge and add its rounds and messages, and its
// stream must declare the same parent edges unusable. CoreFast's c values
// reach sampling probabilities well below 1.

TEST(CoreReference, CoreFastMatchesEngine) {
  for (const testutil::SuperstepFamily& f : testutil::reference_families()) {
    Sim sim(f.g, f.root);
    for (const std::int32_t c : {1, 2, 8, 64, 200}) {
      for (const double gamma : {1.0, 4.0}) {
        SCOPED_TRACE(std::string(f.name) + " c=" + std::to_string(c) +
                     " gamma=" + std::to_string(gamma));
        const CoreFastParams params{c, gamma,
                                    static_cast<std::uint64_t>(c) * 31 + 7};
        CoreResult got;
        const auto got_cost = testutil::measure(sim.net, [&] {
          got = core_fast(sim.net, sim.tree, f.p.part_of, params);
        });
        testutil::ReferenceCore want;
        const auto want_cost = testutil::measure(sim.net, [&] {
          want = testutil::reference_core_fast(sim.net, sim.tree,
                                               f.p.part_of, params);
        });
        EXPECT_EQ(got.shortcut.parts_on_edge, want.shortcut.parts_on_edge);
        EXPECT_EQ(got_cost, want_cost);

        // The sampled stream over the ids whose coins come up.
        const double p = core_fast_sampling_probability(
            f.g.num_nodes(), c, gamma);
        const auto threshold = util::checked_trunc<std::int32_t>(
            std::max(1.0, std::ceil(4.0 * c * p)));
        congest::PerNode<PartId> sampled(f.p.part_of.size(), kNoPart);
        for (std::size_t v = 0; v < sampled.size(); ++v) {
          const PartId j = f.p.part_of[v];
          if (j != kNoPart &&
              hash_coin(params.seed, static_cast<std::uint64_t>(j), p))
            sampled[v] = j;
        }
        EXPECT_EQ(stream_ids_up(sim.tree, sampled, threshold,
                                f.g.num_edges())
                      .unusable,
                  want.unusable);
      }
    }
  }
}

TEST(CoreReference, CoreSlowMatchesEngine) {
  for (const testutil::SuperstepFamily& f : testutil::reference_families()) {
    Sim sim(f.g, f.root);
    for (const std::int32_t c : {1, 2, 8, 64, 200}) {
      SCOPED_TRACE(std::string(f.name) + " c=" + std::to_string(c));
      CoreResult got;
      const auto got_cost = testutil::measure(sim.net, [&] {
        got = core_slow(sim.net, sim.tree, f.p.part_of, c);
      });
      testutil::ReferenceCore want;
      const auto want_cost = testutil::measure(sim.net, [&] {
        want = testutil::reference_core_slow(sim.net, sim.tree, f.p.part_of,
                                             2 * c);
      });
      EXPECT_EQ(got.shortcut.parts_on_edge, want.shortcut.parts_on_edge);
      EXPECT_EQ(got_cost, want_cost);
      EXPECT_EQ(stream_ids_up(sim.tree, f.p.part_of, 2 * c + 1,
                              f.g.num_edges())
                    .unusable,
                want.unusable);
    }
  }
}

}  // namespace
}  // namespace lcs
