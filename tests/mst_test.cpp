#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/reference.h"
#include "mst/boruvka_intra.h"
#include "mst/boruvka_shortcut.h"
#include "mst/mwoe.h"
#include "mst/pipeline.h"
#include "test_util.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs {
namespace {

using testutil::Sim;

/// All three distributed variants must reproduce the unique (weight, id)
/// MST exactly.
void expect_all_variants_match_kruskal(const Graph& g, std::uint64_t seed) {
  const MstResult truth = kruskal_mst(g);

  {
    Sim sim(g);
    ShortcutMstOptions options;
    options.seed = seed;
    const DistributedMst mst =
        mst_boruvka_shortcut(sim.net, sim.tree, options);
    EXPECT_EQ(mst.edges, truth.edges) << "shortcut variant";
    EXPECT_EQ(mst.total_weight, truth.total_weight);
  }
  {
    Sim sim(g);
    const DistributedMst mst = mst_boruvka_intra(sim.net, sim.tree, seed);
    EXPECT_EQ(mst.edges, truth.edges) << "intra variant";
    EXPECT_EQ(mst.total_weight, truth.total_weight);
  }
  {
    Sim sim(g);
    const DistributedMst mst = mst_pipeline(sim.net, sim.tree);
    EXPECT_EQ(mst.edges, truth.edges) << "pipeline variant";
    EXPECT_EQ(mst.total_weight, truth.total_weight);
  }
}

TEST(Mwoe, PackRoundTripsAndOrders) {
  const auto a = pack_candidate(5, 100);
  const auto b = pack_candidate(5, 101);
  const auto c = pack_candidate(6, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(candidate_weight(a), 5u);
  EXPECT_EQ(candidate_edge(a), 100);
  EXPECT_THROW(pack_candidate(std::uint64_t{1} << 32, 0), CheckFailure);
}

TEST(Mwoe, CoinIsSharedAndPhaseDependent) {
  EXPECT_EQ(is_head(7, 3, 1), is_head(7, 3, 1));
  bool differs = false;
  for (std::int32_t phase = 0; phase < 64 && !differs; ++phase)
    differs = is_head(7, 3, phase) != is_head(7, 4, phase);
  EXPECT_TRUE(differs);
}

TEST(Mst, PathGraph) {
  expect_all_variants_match_kruskal(
      with_random_weights(make_path(24), 1, 100, 5), 1);
}

TEST(Mst, CycleGraph) {
  expect_all_variants_match_kruskal(
      with_random_weights(make_cycle(25), 1, 100, 6), 2);
}

TEST(Mst, GridsWithRandomWeights) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    expect_all_variants_match_kruskal(
        with_random_weights(make_grid(7, 7), 1, 1000, seed), seed + 3);
  }
}

TEST(Mst, DuplicateWeightsResolvedByEdgeId) {
  // All weights equal: the unique MST under (w, id) is still well-defined.
  expect_all_variants_match_kruskal(make_grid(6, 6), 4);
}

TEST(Mst, ErdosRenyiAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    expect_all_variants_match_kruskal(
        with_random_weights(make_erdos_renyi(70, 0.07, seed), 1, 500,
                            seed + 9),
        seed);
  }
}

TEST(Mst, WheelGraph) {
  expect_all_variants_match_kruskal(
      with_random_weights(make_wheel(40), 1, 300, 2), 7);
}

TEST(Mst, TorusAndGenusGrid) {
  expect_all_variants_match_kruskal(
      with_random_weights(make_torus(6, 6), 1, 99, 1), 11);
  expect_all_variants_match_kruskal(
      with_random_weights(make_genus_grid(6, 6, 4, 3), 1, 99, 2), 12);
}

TEST(Mst, LowerBoundGraph) {
  const Graph g =
      with_random_weights(make_lower_bound_graph(6, 6), 1, 200, 8);
  expect_all_variants_match_kruskal(g, 13);
}

TEST(Mst, SingleNodeAndSingleEdge) {
  expect_all_variants_match_kruskal(make_path(1), 1);
  expect_all_variants_match_kruskal(make_path(2), 1);
}

/// Wheel with light cycle edges and heavy spokes: Boruvka fragments grow as
/// long arcs (the hub joins last), the worst case for intra-fragment
/// flooding while the wheel diameter stays 2.
Graph make_arc_forcing_wheel(NodeId n, std::uint64_t seed) {
  const Graph base = make_wheel(n);
  Rng rng(seed);
  std::vector<Graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(base.num_edges()));
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    Graph::Edge ed = base.edge(e);
    const bool spoke = ed.u == n - 1 || ed.v == n - 1;
    ed.w = spoke ? 100000 + rng.next_below(1000) : 1 + rng.next_below(1000);
    edges.push_back(ed);
  }
  return Graph(n, std::move(edges));
}

TEST(Mst, ShortcutRoundsScaleWithDiameterNotSize) {
  // On wheels (D = 2) the shortcut variant's rounds must stay nearly flat
  // as n quadruples, while the intra baseline — forced to flood along
  // growing arc fragments — scales with the arc length (Section 1.2's gap).
  const Graph small = make_arc_forcing_wheel(129, 3);
  const Graph large = make_arc_forcing_wheel(513, 3);

  auto run = [](const Graph& g, bool use_shortcut) {
    Sim sim(g);
    const DistributedMst mst = use_shortcut
                                   ? mst_boruvka_shortcut(sim.net, sim.tree)
                                   : mst_boruvka_intra(sim.net, sim.tree);
    EXPECT_EQ(mst.total_weight, kruskal_mst(g).total_weight);
    return mst.rounds;
  };

  const double shortcut_growth = static_cast<double>(run(large, true)) /
                                 static_cast<double>(run(small, true));
  const double intra_growth = static_cast<double>(run(large, false)) /
                              static_cast<double>(run(small, false));
  EXPECT_LT(shortcut_growth, 2.5);  // polylog growth on constant diameter
  EXPECT_GT(intra_growth, 2.0);     // pays the growing arc diameters
}

TEST(Mst, DeterministicForFixedSeed) {
  const Graph g = with_random_weights(make_grid(6, 6), 1, 50, 9);
  Sim s1(g), s2(g);
  ShortcutMstOptions options;
  options.seed = 123;
  const DistributedMst m1 = mst_boruvka_shortcut(s1.net, s1.tree, options);
  const DistributedMst m2 = mst_boruvka_shortcut(s2.net, s2.tree, options);
  EXPECT_EQ(m1.edges, m2.edges);
  EXPECT_EQ(s1.net.total_rounds(), s2.net.total_rounds());
}

// CoreFast samples parts only when c > 2·log2 n (gamma = 4); below that no
// count depends on the shortcut seeds, so no golden sees the seed stream.
// Starting the doubling at c = 64 on 64 nodes makes every phase sample, and
// the exact counts pin MST's seed stream: its salt and the (c, b) carried
// from phase to phase.
TEST(Mst, SampledCoreFastPinsTheSeedStream) {
  const Graph g = with_random_weights(make_grid(8, 8), 1, 1000, 3);
  Sim sim(g);
  const std::int64_t messages_before = sim.net.total_messages();
  ShortcutMstOptions options;
  options.seed = 5;
  options.shortcut_params.c = 64;
  const DistributedMst mst = mst_boruvka_shortcut(sim.net, sim.tree, options);
  EXPECT_EQ(mst.edges, kruskal_mst(g).edges);
  EXPECT_EQ(mst.rounds, 17928);
  EXPECT_EQ(sim.net.total_messages() - messages_before, 169537);
}

TEST(Mst, PhaseCountLogarithmic) {
  const Graph g = with_random_weights(make_grid(10, 10), 1, 1000, 4);
  Sim sim(g);
  const DistributedMst mst = mst_boruvka_shortcut(sim.net, sim.tree);
  EXPECT_LE(mst.phases, 8 * 7 + 20);  // cap from the implementation
  EXPECT_GE(mst.phases, 3);           // cannot finish in O(1) phases
}

}  // namespace
}  // namespace lcs
