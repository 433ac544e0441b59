#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/graph.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/partition.h"
#include "scenario/scenario.h"
#include "util/check.h"

namespace lcs {
namespace {

using scenario::make_scenario;
using scenario::parse_spec;
using scenario::Scenario;

void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
    EXPECT_EQ(a.edge(e).w, b.edge(e).w);
  }
}

TEST(SpecParser, FamilyAndParams) {
  auto args = parse_spec("er:n=100000,p=2e-4,seed=7");
  EXPECT_EQ(args.family(), "er");
  EXPECT_EQ(args.require_int("n"), 100000);
  EXPECT_DOUBLE_EQ(args.require_double("p"), 2e-4);
  EXPECT_EQ(args.get_uint("seed", 1), 7u);
  args.check_all_consumed();
}

TEST(SpecParser, BareFamilyHasNoParams) {
  auto args = parse_spec("grid");
  EXPECT_EQ(args.family(), "grid");
  args.check_all_consumed();
}

TEST(SpecParser, FilePathIsFirstToken) {
  auto args = parse_spec("file:graphs/road.bin,parts=16");
  EXPECT_EQ(args.family(), "file");
  EXPECT_EQ(args.get_string("path", ""), "graphs/road.bin");
  EXPECT_EQ(args.require_int("parts"), 16);
  args.check_all_consumed();
}

TEST(SpecParser, DiagnosesGrammarErrors) {
  EXPECT_THROW(parse_spec(""), CheckFailure);
  EXPECT_THROW(parse_spec(":n=4"), CheckFailure);
  EXPECT_THROW(parse_spec("grid:w"), CheckFailure);
  EXPECT_THROW(parse_spec("grid:=4"), CheckFailure);
  EXPECT_THROW(parse_spec("grid:w=4,,h=4"), CheckFailure);
  EXPECT_THROW(parse_spec("grid:w=4,w=5"), CheckFailure);  // duplicate key
}

TEST(SpecParser, DiagnosesMalformedValues) {
  auto args = parse_spec("grid:w=abc");
  EXPECT_THROW(args.get_int("w", 1), CheckFailure);
}

TEST(Registry, UnknownFamilyAndUnknownParamDiagnosed) {
  EXPECT_THROW(make_scenario("no-such-family:n=4"), CheckFailure);
  EXPECT_THROW(make_scenario("grid:w=4,bogus=1"), CheckFailure);
}

TEST(Registry, UnknownParamDiagnosisNamesKeyAndAcceptedSet) {
  try {
    make_scenario("grid:w=4,bogus=1");
    FAIL() << "unknown key accepted";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
    EXPECT_NE(msg.find("accepted:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("w"), std::string::npos) << msg;
    EXPECT_NE(msg.find("parts"), std::string::npos) << msg;  // common key
  }
}

TEST(Registry, EveryBuiltinFamilyRejectsUnknownAndDuplicateKeys) {
  // Per-family regression: a misspelled parameter must be diagnosed by
  // name (never silently defaulted), and a duplicated one must be
  // rejected at parse time for every family.
  for (const auto& family : scenario::families()) {
    if (family.name == "file") continue;  // needs a real path
    SCOPED_TRACE(family.name);
    EXPECT_FALSE(family.param_keys.empty())
        << "builtin family must declare its parameter keys";
    try {
      make_scenario(family.name + ":zzz_bogus=1");
      FAIL() << "unknown key accepted by " << family.name;
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("zzz_bogus"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(make_scenario(family.name + ":seed=1,seed=2"), CheckFailure);
  }
}

TEST(Registry, FamilyLookupAndAcceptedKeys) {
  const scenario::Family* grid = scenario::find_family("grid");
  ASSERT_NE(grid, nullptr);
  EXPECT_EQ(scenario::find_family("no-such-family"), nullptr);

  const auto accepted = scenario::accepted_param_keys(*grid);
  for (const std::string& key : grid->param_keys)
    EXPECT_NE(std::find(accepted.begin(), accepted.end(), key),
              accepted.end())
        << key;
  for (const std::string& key : scenario::common_param_keys())
    EXPECT_NE(std::find(accepted.begin(), accepted.end(), key),
              accepted.end())
        << key;
}

TEST(Registry, DeclaredKeysMatchWhatBuildersConsume) {
  // Every declared key must actually be accepted by its family's builder
  // (with the default spec as a base); a key in `param_keys` that the
  // builder does not consume would make the pre-expansion sweep check lie.
  for (const auto& family : scenario::families()) {
    if (family.name == "file") continue;
    for (const std::string& key : family.param_keys) {
      SCOPED_TRACE(family.name + ":" + key);
      if (key == "path") continue;  // value is a filesystem path
      // `deg` vs `p`/`m` style alternatives can conflict; a consumed key
      // never produces an "unknown parameter" diagnosis, though it may
      // produce a value/conflict one. Distinguish by message.
      try {
        make_scenario(family.name + ":" + key + "=3");
      } catch (const CheckFailure& e) {
        EXPECT_EQ(std::string(e.what()).find("unknown parameter"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Registry, EveryBuiltinFamilyResolvesWithDefaults) {
  for (const auto& family : scenario::families()) {
    if (family.name == "file") continue;  // needs a real path
    SCOPED_TRACE(family.name);
    const Scenario sc = make_scenario(family.name);
    EXPECT_EQ(sc.family, family.name);
    EXPECT_GE(sc.graph.num_nodes(), 1);
    EXPECT_TRUE(is_connected(sc.graph));
    EXPECT_GE(sc.partition.num_parts, 1);
    validate_partition(sc.graph, sc.partition);
  }
}

TEST(Registry, SameSpecIsBitIdentical) {
  const char* specs[] = {
      "grid:w=9,h=7",
      "er:n=80,deg=5,seed=3",
      "rmat:scale=6,deg=6,seed=4",
      "ba:n=70,m=2,seed=5",
      "rreg:n=40,d=4,seed=6",
      "ktree:n=60,k=2,seed=7",
      "wheel:n=33,arcs=4",
      "lb:paths=4,len=5",
  };
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    const Scenario a = make_scenario(spec);
    const Scenario b = make_scenario(spec);
    expect_identical(a.graph, b.graph);
    ASSERT_EQ(a.partition.num_parts, b.partition.num_parts);
    EXPECT_EQ(a.partition.part_of, b.partition.part_of);
  }
}

TEST(Registry, PartsOverrideAndPseed) {
  const Scenario sc = make_scenario("grid:w=10,parts=5,pseed=9");
  EXPECT_EQ(sc.partition.num_parts, 5);
  validate_partition(sc.graph, sc.partition);
  // Different pseed must move the partition (same graph).
  const Scenario other = make_scenario("grid:w=10,parts=5,pseed=10");
  expect_identical(sc.graph, other.graph);
  EXPECT_NE(sc.partition.part_of, other.partition.part_of);
}

TEST(Registry, GridRowsPartition) {
  const Scenario sc = make_scenario("grid:w=8,h=6,rows=2");
  EXPECT_EQ(sc.partition.num_parts, 3);
  validate_partition(sc.graph, sc.partition);
}

TEST(Registry, WheelKeepsHubUnassigned) {
  const Scenario sc = make_scenario("wheel:n=33,arcs=4");
  EXPECT_EQ(sc.partition.num_parts, 4);
  EXPECT_EQ(sc.partition.part(32), kNoPart);
}

TEST(Registry, WeightsParamReweights) {
  const Scenario sc = make_scenario("path:n=6,weights=5-5");
  for (EdgeId e = 0; e < sc.graph.num_edges(); ++e)
    EXPECT_EQ(sc.graph.edge(e).w, 5u);
  EXPECT_THROW(make_scenario("path:n=6,weights=nonsense"), CheckFailure);
}

TEST(Registry, ErDegAndExplicitPAgree) {
  const Scenario by_deg = make_scenario("er:n=100,deg=5,seed=3");
  const Scenario by_p = make_scenario("er:n=100,p=0.05,seed=3");
  expect_identical(by_deg.graph, by_p.graph);
}

TEST(Registry, FileScenarioRoundTrips) {
  const std::string path = testing::TempDir() + "lcs_scenario_corpus.bin";
  const Scenario source = make_scenario("ktree:n=50,k=3,seed=2");
  save_binary(source.graph, path);
  const Scenario loaded = make_scenario("file:" + path + ",parts=6");
  expect_identical(source.graph, loaded.graph);
  EXPECT_EQ(loaded.family, "file");
  EXPECT_EQ(loaded.partition.num_parts, 6);
  std::remove(path.c_str());
}

TEST(Registry, FileScenarioDiagnosesMissingAndDisconnected) {
  EXPECT_THROW(make_scenario("file:/nonexistent/nowhere.bin"), CheckFailure);
  // A disconnected corpus is rejected up front.
  const std::string path = testing::TempDir() + "lcs_scenario_disc.txt";
  {
    std::ofstream out(path);
    out << "nodes 4\n0 1\n2 3\n";
  }
  EXPECT_THROW(make_scenario("file:" + path), CheckFailure);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lcs
