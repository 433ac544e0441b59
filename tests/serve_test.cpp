#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "driver/run_driver.h"
#include "graph/graph.h"
#include "scenario/scenario.h"
#include "serve/cache.h"
#include "shortcut/persist.h"
#include "util/check.h"
#include "util/json_reader.h"

namespace lcs {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

driver::RunHooks hooks_for(serve::ScenarioCache& scenarios,
                           serve::ShortcutRecordCache& records) {
  driver::RunHooks hooks;
  hooks.resolve_scenario = [&scenarios](const std::string& spec) {
    return scenarios.resolve(spec);
  };
  hooks.find_shortcut_record = [&records](const driver::ShortcutCacheKey& key,
                                          const scenario::Scenario& sc) {
    return records.find(key, sc);
  };
  hooks.store_shortcut_record =
      [&records](const driver::ShortcutCacheKey& key,
                 const scenario::Scenario& sc,
                 const std::shared_ptr<const ShortcutRunRecord>& record) {
        records.store(key, sc, record);
      };
  return hooks;
}

TEST(ScenarioCache, MemoryThenDiskThenGenerate) {
  const std::string dir = fresh_dir("lcs_scen_cache");
  {
    serve::ScenarioCache cache(dir);
    const auto a = cache.resolve("grid:w=6,h=5");
    const auto b = cache.resolve("grid:w=6,h=5");
    EXPECT_EQ(a.get(), b.get());  // one canonical object
    const auto s = cache.stats();
    EXPECT_EQ(s.generated, 1);
    EXPECT_EQ(s.memory_hits, 1);
    EXPECT_EQ(s.disk_loads, 0);
  }
  {
    // A new process (new cache object) over the same directory: pure I/O.
    serve::ScenarioCache cache(dir);
    const auto sc = cache.resolve("grid:w=6,h=5");
    EXPECT_EQ(sc->spec, "grid:w=6,h=5");
    EXPECT_EQ(sc->family, "grid");
    EXPECT_EQ(sc->graph.num_nodes(), 30);
    const auto s = cache.stats();
    EXPECT_EQ(s.generated, 0);
    EXPECT_EQ(s.disk_loads, 1);
  }
  fs::remove_all(dir);
}

TEST(ScenarioCache, DiskEntriesMatchDirectGeneration) {
  const std::string dir = fresh_dir("lcs_scen_cache_eq");
  const char* spec = "er:n=60,deg=4,seed=9,parts=5";
  serve::ScenarioCache cold(dir);
  const auto generated = cold.resolve(spec);
  serve::ScenarioCache warm(dir);
  const auto loaded = warm.resolve(spec);
  ASSERT_EQ(warm.stats().generated, 0);
  ASSERT_EQ(generated->graph.num_edges(), loaded->graph.num_edges());
  for (EdgeId e = 0; e < generated->graph.num_edges(); ++e) {
    EXPECT_EQ(generated->graph.edge(e).u, loaded->graph.edge(e).u);
    EXPECT_EQ(generated->graph.edge(e).v, loaded->graph.edge(e).v);
    EXPECT_EQ(generated->graph.edge(e).w, loaded->graph.edge(e).w);
  }
  EXPECT_EQ(generated->partition.num_parts, loaded->partition.num_parts);
  EXPECT_EQ(generated->partition.part_of, loaded->partition.part_of);
  fs::remove_all(dir);
}

TEST(ScenarioCache, CorruptEntryDegradesToRegeneration) {
  const std::string dir = fresh_dir("lcs_scen_cache_bad");
  {
    serve::ScenarioCache cache(dir);
    (void)cache.resolve("grid:w=5,h=5");  // warm / regenerate the entry
  }
  // Truncate the one cache file: a torn/corrupt entry.
  std::string entry;
  for (const auto& f : fs::directory_iterator(dir))
    entry = f.path().string();
  ASSERT_FALSE(entry.empty());
  fs::resize_file(entry, fs::file_size(entry) / 2);
  {
    serve::ScenarioCache cache(dir);
    const auto sc = cache.resolve("grid:w=5,h=5");
    EXPECT_EQ(sc->graph.num_nodes(), 25);
    const auto s = cache.stats();
    EXPECT_EQ(s.disk_load_failures, 1);
    EXPECT_EQ(s.generated, 1);  // recomputed, not served torn
  }
  // The regeneration rewrote the entry: next start is warm again.
  {
    serve::ScenarioCache cache(dir);
    (void)cache.resolve("grid:w=5,h=5");  // warm / regenerate the entry
    EXPECT_EQ(cache.stats().disk_loads, 1);
    EXPECT_EQ(cache.stats().generated, 0);
  }
  fs::remove_all(dir);
}

TEST(ServeDriver, WarmShortcutRunIsByteIdenticalWithZeroConstruction) {
  const std::string dir = fresh_dir("lcs_record_cache");
  driver::RunOptions o;
  o.algo = "shortcut";
  o.scenario = "grid:w=8,h=8";
  o.validate = true;
  o.timing = false;

  std::string cold_doc;
  {
    serve::ScenarioCache scenarios(dir);
    serve::ShortcutRecordCache records(dir);
    const int rc =
        driver::run_document(o, hooks_for(scenarios, records), cold_doc);
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(records.stats().constructed, 1);
  }
  // Baseline: no hooks at all (the lcs_run path).
  std::string oneshot_doc;
  EXPECT_EQ(driver::run_document(o, driver::RunHooks{}, oneshot_doc), 0);
  EXPECT_EQ(cold_doc, oneshot_doc);

  // Warm start: same document, zero generation, zero construction.
  std::string warm_doc;
  {
    serve::ScenarioCache scenarios(dir);
    serve::ShortcutRecordCache records(dir);
    const auto hooks = hooks_for(scenarios, records);
    EXPECT_EQ(driver::run_document(o, hooks, warm_doc), 0);
    EXPECT_EQ(scenarios.stats().generated, 0);
    EXPECT_EQ(records.stats().constructed, 0);
    EXPECT_EQ(records.stats().disk_loads, 1);
    // And a repeat inside the process hits the memo.
    std::string again;
    EXPECT_EQ(driver::run_document(o, hooks, again), 0);
    EXPECT_EQ(records.stats().memory_hits, 1);
    EXPECT_EQ(again, warm_doc);
  }
  EXPECT_EQ(warm_doc, cold_doc);
  fs::remove_all(dir);
}

TEST(ServeDriver, CorruptRecordDegradesToReconstruction) {
  const std::string dir = fresh_dir("lcs_record_cache_bad");
  driver::RunOptions o;
  o.algo = "shortcut";
  o.scenario = "grid:w=6,h=6";
  o.timing = false;

  std::string cold_doc;
  {
    serve::ScenarioCache scenarios(dir);
    serve::ShortcutRecordCache records(dir);
    driver::run_document(o, hooks_for(scenarios, records), cold_doc);
  }
  for (const auto& f : fs::directory_iterator(dir)) {
    const std::string p = f.path().string();
    if (p.size() > 5 && p.substr(p.size() - 5) == ".lcss")
      fs::resize_file(p, fs::file_size(p) / 2);
  }
  std::string warm_doc;
  {
    serve::ScenarioCache scenarios(dir);
    serve::ShortcutRecordCache records(dir);
    EXPECT_EQ(driver::run_document(o, hooks_for(scenarios, records), warm_doc),
              0);
    EXPECT_EQ(records.stats().disk_load_failures, 1);
    EXPECT_EQ(records.stats().constructed, 1);
  }
  EXPECT_EQ(warm_doc, cold_doc);
  fs::remove_all(dir);
}

TEST(ServeDriver, SeedAndPartitionChangesMissTheCache) {
  const std::string dir = fresh_dir("lcs_record_cache_keys");
  serve::ScenarioCache scenarios(dir);
  serve::ShortcutRecordCache records(dir);
  const auto hooks = hooks_for(scenarios, records);

  driver::RunOptions o;
  o.algo = "shortcut";
  o.scenario = "grid:w=6,h=6";
  o.timing = false;
  std::string doc;
  driver::run_document(o, hooks, doc);
  o.seed = 2;
  driver::run_document(o, hooks, doc);
  EXPECT_EQ(records.stats().constructed, 2);  // different seed, new record
  o.seed = 1;
  o.scenario = "grid:w=6,h=6,pseed=7";  // same graph, different partition
  driver::run_document(o, hooks, doc);
  EXPECT_EQ(records.stats().constructed, 3);
  fs::remove_all(dir);
}

TEST(ServeDriver, BackendChangesMissTheCacheAndWarmStartServesAll) {
  const std::string dir = fresh_dir("lcs_record_cache_backends");
  driver::RunOptions o;
  o.algo = "shortcut";
  o.scenario = "ktree:n=40,k=3,seed=2";  // every built-in backend applies
  o.timing = false;
  std::vector<std::string> cold_docs;
  {
    serve::ScenarioCache scenarios(dir);
    serve::ShortcutRecordCache records(dir);
    const auto hooks = hooks_for(scenarios, records);
    for (const char* backend : {"", "naive", "kkoi19"}) {
      o.backend = backend;
      std::string doc;
      EXPECT_EQ(driver::run_document(o, hooks, doc), 0);
      cold_docs.push_back(std::move(doc));
    }
    // Three distinct records: backend is part of the cache key.
    EXPECT_EQ(records.stats().constructed, 3);
    // An explicit --backend=hiz16 resolves to the default's record.
    o.backend = "hiz16";
    std::string doc;
    EXPECT_EQ(driver::run_document(o, hooks, doc), 0);
    EXPECT_EQ(records.stats().constructed, 3);
    EXPECT_EQ(records.stats().memory_hits, 1);
    EXPECT_EQ(doc, cold_docs[0]);
  }
  // Warm start: all three backends answered from disk, zero construction.
  {
    serve::ScenarioCache scenarios(dir);
    serve::ShortcutRecordCache records(dir);
    const auto hooks = hooks_for(scenarios, records);
    std::size_t i = 0;
    for (const char* backend : {"", "naive", "kkoi19"}) {
      o.backend = backend;
      std::string doc;
      EXPECT_EQ(driver::run_document(o, hooks, doc), 0);
      EXPECT_EQ(doc, cold_docs[i++]) << backend;
    }
    EXPECT_EQ(records.stats().constructed, 0);
    EXPECT_EQ(records.stats().disk_loads, 3);
  }
  fs::remove_all(dir);
}

std::vector<std::string> keys_of(const JsonValue& v) {
  std::vector<std::string> keys;
  for (const auto& member : v.as_object("report object"))
    keys.push_back(member.first);
  return keys;
}

std::set<std::string> timing_keys(const JsonValue& doc) {
  const JsonValue* timing = doc.find("timing", "report");
  if (timing == nullptr) return {};
  const std::vector<std::string> keys = keys_of(*timing);
  return {keys.begin(), keys.end()};
}

// Every golden and serve gate runs with timing off, so this pins the report
// envelope with it on: the top-level key order of each report shape, and
// `timing` carrying `threads` exactly when an engine ran (wall_ms is not
// asserted — it is the one sanctioned nondeterminism).
TEST(ServeDriver, ReportEnvelopeWithTimingPinsKeyOrder) {
  const std::vector<std::string> engine_keys = {
      "schema", "algorithm", "scenario", "config", "setup",
      "result", "charges",   "validation", "timing"};
  const std::vector<std::string> churn_keys = {
      "schema", "algorithm", "scenario", "config",
      "churn",  "checkpoints", "validation", "timing"};
  const std::set<std::string> engine_timing = {"threads", "wall_ms"};
  const std::set<std::string> wall_only = {"wall_ms"};

  const auto run = [](const driver::RunOptions& o,
                      const driver::RunHooks& hooks) {
    std::string doc;
    EXPECT_EQ(driver::run_document(o, hooks, doc), 0);
    return parse_json(doc);
  };

  driver::RunOptions o;
  o.scenario = "grid:w=6,h=6";
  o.timing = true;

  o.algo = "none";
  const JsonValue none = run(o, {});
  EXPECT_EQ(keys_of(none), (std::vector<std::string>{
                               "schema", "algorithm", "scenario", "config",
                               "validation", "timing"}));
  EXPECT_EQ(timing_keys(none), wall_only);

  o.algo = "mst";
  o.threads = 2;
  const JsonValue mst = run(o, {});
  EXPECT_EQ(keys_of(mst), engine_keys);
  ASSERT_EQ(timing_keys(mst), engine_timing);
  EXPECT_EQ(mst.find("timing", "report")->find("threads", "timing")->as_int(
                "timing.threads"),
            2);
  o.threads = 1;

  // Shortcut cold (engine built) and warm (record served, no engine
  // instantiated): the envelope must not tell the two apart.
  const std::string dir = fresh_dir("lcs_envelope_records");
  o.algo = "shortcut";
  {
    serve::ScenarioCache scenarios(dir);
    serve::ShortcutRecordCache records(dir);
    const auto hooks = hooks_for(scenarios, records);
    const JsonValue cold = run(o, hooks);
    const JsonValue warm = run(o, hooks);
    EXPECT_EQ(records.stats().constructed, 1);
    EXPECT_EQ(records.stats().memory_hits, 1);
    EXPECT_EQ(keys_of(cold), engine_keys);
    EXPECT_EQ(timing_keys(cold), engine_timing);
    EXPECT_EQ(keys_of(warm), engine_keys);
    EXPECT_EQ(timing_keys(warm), engine_timing);
  }
  fs::remove_all(dir);

  // Churn: the shared scenario fields nest under `base`, and the engine
  // runs only under validate when the final snapshot is connected.
  o.algo = "churn";
  o.scenario = "churn:base=grid:w=6,h=6;steps=20,rate=0.02,dfrac=0.3,seed=7";
  o.validate = false;
  const JsonValue churn_off = run(o, {});
  ASSERT_EQ(keys_of(churn_off), churn_keys);
  EXPECT_EQ(keys_of(*churn_off.find("scenario", "report")),
            (std::vector<std::string>{"spec", "family", "base"}));
  EXPECT_EQ(timing_keys(churn_off), wall_only);

  o.validate = true;
  const JsonValue connected = run(o, {});
  ASSERT_EQ(keys_of(connected), churn_keys);
  EXPECT_EQ(connected.find("validation", "report")
                ->find("oracle", "validation")
                ->as_string("validation.oracle"),
            "distributed Boruvka MST over the final snapshot");
  EXPECT_EQ(timing_keys(connected), engine_timing);

  o.scenario = "churn:base=grid:w=6,h=6;steps=40,rate=0.1,dfrac=0.9,seed=7";
  const JsonValue disconnected = run(o, {});
  ASSERT_EQ(keys_of(disconnected), churn_keys);
  EXPECT_EQ(disconnected.find("validation", "report")
                ->find("oracle", "validation")
                ->as_string("validation.oracle")
                .rfind("skipped", 0),
            0u);
  EXPECT_EQ(timing_keys(disconnected), wall_only);
}

TEST(ServeDriver, ErrorDocumentsAreDeterministic) {
  driver::RunOptions o;
  o.algo = "nonsense";
  o.scenario = "grid";
  std::string ignored;
  std::string message;
  try {
    driver::run_document(o, driver::RunHooks{}, ignored);
    FAIL() << "unknown algo accepted";
  } catch (const CheckFailure& e) {
    message = e.what();
  }
  const std::string doc1 = driver::error_document("check_failure", message, 2);
  const std::string doc2 = driver::error_document("check_failure", message, 2);
  EXPECT_EQ(doc1, doc2);
  EXPECT_NE(doc1.find("\"error\""), std::string::npos);
  EXPECT_NE(doc1.find("nonsense"), std::string::npos);
}

TEST(ServeDriver, SpecHashIsStableAcrossRuns) {
  // Cache file names embed this hash; a drifting hash function would
  // silently orphan every on-disk entry. Pin the FNV-1a constants.
  EXPECT_EQ(driver::spec_hash(""), 14695981039346656037ull);
  EXPECT_EQ(driver::spec_hash("a"), 12638187200555641996ull);
  const std::uint64_t h = driver::spec_hash("grid:w=8,h=8");
  EXPECT_EQ(h, driver::spec_hash("grid:w=8,h=8"));
  EXPECT_NE(h, driver::spec_hash("grid:w=8,h=9"));
}

}  // namespace
}  // namespace lcs
