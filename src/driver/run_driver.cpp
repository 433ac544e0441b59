#include "driver/run_driver.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "apps/aggregate.h"
#include "apps/components.h"
#include "apps/mincut.h"
#include "congest/network.h"
#include "dynamic/churn.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/verified.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/partition.h"
#include "graph/reference.h"
#include "mst/boruvka_shortcut.h"
#include "mst/mwoe.h"
#include "scenario/scenario.h"
#include "shortcut/backend/backend.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/persist.h"
#include "shortcut/quality.h"
#include "shortcut/shortcut.h"
#include "tree/bfs_tree.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/worker_pool.h"

namespace lcs::driver {

std::uint64_t spec_hash(std::string_view spec) { return fnv1a64(spec); }

std::uint64_t partition_hash(const Partition& p) {
  return fnv1a64(encode_partition(p));
}

namespace {

std::shared_ptr<const scenario::Scenario> resolve_scenario(
    const RunHooks& hooks, const std::string& spec) {
  if (hooks.resolve_scenario) return hooks.resolve_scenario(spec);
  return std::make_shared<const scenario::Scenario>(
      scenario::make_scenario(spec));
}

/// Exact equality of two labelings as partitions of the node set.
bool same_partition_structure(const std::vector<PartId>& a,
                              const std::vector<NodeId>& b) {
  std::vector<std::pair<PartId, NodeId>> pairs;
  pairs.reserve(a.size());
  for (std::size_t v = 0; v < a.size(); ++v) pairs.emplace_back(a[v], b[v]);
  std::sort(pairs.begin(), pairs.end());
  // Bijective iff every a-label maps to exactly one b-label and vice versa.
  std::set<PartId> as;
  std::set<NodeId> bs;
  PartId prev_a = -1;
  NodeId prev_b = -1;
  bool first = true;
  for (const auto& [la, lb] : pairs) {
    if (!first && la == prev_a && lb != prev_b) return false;
    if (first || la != prev_a) {
      if (!as.insert(la).second) return false;
      if (!bs.insert(lb).second) return false;
    }
    prev_a = la;
    prev_b = lb;
    first = false;
  }
  return true;
}

/// What a runner hands back to run_one, which owns the rest of the report
/// (scenario, config, validation, timing) and the exit code.
struct RunReport {
  // The sections between "config" and "validation": "churn" and
  // "checkpoints" for churn; "setup", "result" and "charges" for engine
  // algorithms, whose runners write only their "result" fields here for
  // set_engine_body to wrap. Unset for `none`.
  std::function<void(JsonWriter&)> body;
  // Threads the engine ran at, emitted under "timing"; -1 = no engine ran.
  int threads = -1;
  // Validation payload, emitted under "validation"; `ok` drives exit code.
  bool validated = false;
  bool ok = true;
  std::function<void(JsonWriter&)> validation;
};

/// Engine accounting of a cell, normalized so the body cannot tell where it
/// came from: a live network, or a cached shortcut record.
struct EngineAccounting {
  std::int64_t setup_rounds = 0;
  std::int64_t setup_messages = 0;
  std::int64_t algo_rounds = 0;
  std::int64_t algo_messages = 0;
  std::vector<std::pair<std::string, std::int64_t>> charges;
};

/// Wraps an engine runner's "result" fields into the engine body: "setup",
/// "result" (the fields, then the algorithm's rounds and messages) and
/// "charges".
void set_engine_body(RunReport& rep, EngineAccounting acc, int threads) {
  rep.threads = threads;
  rep.body = [result = std::move(rep.body),
              acc = std::move(acc)](JsonWriter& w) {
    w.key("setup").begin_object();
    w.kv("rounds", acc.setup_rounds);
    w.kv("messages", acc.setup_messages);
    w.end_object();

    w.key("result").begin_object();
    result(w);
    w.kv("rounds", acc.algo_rounds);
    w.kv("messages", acc.algo_messages);
    w.end_object();

    w.key("charges").begin_object();
    for (const auto& [label, rounds] : acc.charges) w.kv(label, rounds);
    w.end_object();
  };
}

void configure_network(congest::Network& net, const RunOptions& o) {
  net.set_validate(o.validate);
  net.set_threads(o.threads);
  if (o.parallel_threshold >= 0)
    net.set_parallel_round_threshold(o.parallel_threshold);
}

RunReport run_components(congest::Network& net, const SpanningTree& tree,
                         const scenario::Scenario& sc, const RunOptions& o) {
  LCS_CHECK(o.fail_rate >= 0.0 && o.fail_rate < 1.0,
            "--fail-rate must be in [0, 1)");
  // Shared-seed logical failures, independent of the algorithm seed stream.
  Rng rng(o.seed);
  std::vector<bool> alive(static_cast<std::size_t>(sc.graph.num_edges()));
  std::int64_t failed = 0;
  for (std::size_t e = 0; e < alive.size(); ++e) {
    alive[e] = !rng.next_bool(o.fail_rate);
    if (!alive[e]) ++failed;
  }

  const ComponentsResult res =
      distributed_components(net, tree, alive, o.seed);
  std::set<PartId> labels(res.label.begin(), res.label.end());
  const std::int64_t components = static_cast<std::int64_t>(labels.size());

  RunReport rep;
  rep.body = [components, failed, res](JsonWriter& w) {
    w.kv("components", components);
    w.kv("failed_edges", failed);
    w.kv("phases", res.phases);
  };
  if (o.validate) {
    const auto truth = connected_components(sc.graph, alive);
    rep.validated = true;
    rep.ok = same_partition_structure(res.label, truth);
    std::set<NodeId> truth_labels(truth.begin(), truth.end());
    const std::int64_t exact = static_cast<std::int64_t>(truth_labels.size());
    const bool ok = rep.ok;
    rep.validation = [exact, ok](JsonWriter& w) {
      w.kv("oracle", "centralized union-find components");
      w.kv("oracle_components", exact);
      w.kv("labels_match", ok);
    };
  }
  return rep;
}

RunReport run_mst(congest::Network& net, const SpanningTree& tree,
                  const scenario::Scenario& sc, const RunOptions& o) {
  ShortcutMstOptions opts;
  opts.seed = o.seed;
  const DistributedMst mst = mst_boruvka_shortcut(net, tree, opts);

  RunReport rep;
  rep.body = [mst](JsonWriter& w) {
    w.kv("weight", mst.total_weight);
    w.kv("mst_edges", static_cast<std::int64_t>(mst.edges.size()));
    w.kv("phases", mst.phases);
  };
  if (o.validate) {
    const MstResult truth = kruskal_mst(sc.graph);
    rep.validated = true;
    rep.ok = truth.total_weight == mst.total_weight && truth.edges == mst.edges;
    const bool ok = rep.ok;
    const Weight w_truth = truth.total_weight;
    rep.validation = [ok, w_truth](JsonWriter& w) {
      w.kv("oracle", "Kruskal (weight, edge id) order");
      w.kv("oracle_weight", w_truth);
      w.kv("edges_match", ok);
    };
  }
  return rep;
}

RunReport run_mincut(congest::Network& net, const SpanningTree& tree,
                     const scenario::Scenario& sc, const RunOptions& o) {
  const MincutEstimate est = approx_mincut(net, tree, o.seed);

  RunReport rep;
  rep.body = [est](JsonWriter& w) {
    w.kv("estimate", est.estimate);
    w.kv("levels_tested", est.levels_tested);
  };
  if (o.validate) {
    // Stoer-Wagner is O(n^3): cap the oracle at sizes where it is instant.
    constexpr NodeId kOracleCap = 1500;
    rep.validated = true;
    if (sc.graph.num_nodes() <= kOracleCap) {
      const Weight exact = stoer_wagner_mincut(sc.graph);
      // Karger sampling brackets lambda within O(log n) w.h.p.; use a
      // generous constant so the gate never flakes on legitimate runs.
      const double slack =
          64.0 * (std::log2(static_cast<double>(sc.graph.num_nodes())) + 2.0);
      rep.ok = static_cast<double>(est.estimate) <=
                   static_cast<double>(exact) * slack &&
               static_cast<double>(exact) <=
                   static_cast<double>(est.estimate) * slack;
      const bool ok = rep.ok;
      rep.validation = [exact, ok](JsonWriter& w) {
        w.kv("oracle", "Stoer-Wagner exact min cut");
        w.kv("oracle_lambda", exact);
        w.kv("within_sampling_bracket", ok);
      };
    } else {
      rep.validation = [](JsonWriter& w) {
        w.kv("oracle", "skipped (graph above the O(n^3) oracle cap)");
      };
    }
  }
  return rep;
}

RunReport run_aggregate(congest::Network& net, const SpanningTree& tree,
                        const scenario::Scenario& sc, const RunOptions& o) {
  FindShortcutParams params;
  params.seed = o.seed;
  PartAggregator agg(net, tree, sc.partition, params);
  const FindShortcutStats stats = agg.construction_stats();

  const std::int64_t before = net.total_rounds();
  const auto leaders = agg.leaders();
  const std::int64_t leader_rounds = net.total_rounds() - before;

  RunReport rep;
  rep.body = [stats, leader_rounds](JsonWriter& w) {
    w.kv("trials", stats.trials);
    w.kv("iterations", stats.iterations);
    w.kv("used_c", stats.used_c);
    w.kv("used_b", stats.used_b);
    w.kv("construction_rounds", stats.rounds);
    w.kv("leader_election_rounds", leader_rounds);
  };
  if (o.validate) {
    std::vector<NodeId> truth(static_cast<std::size_t>(sc.partition.num_parts),
                              kNoNode);
    for (NodeId v = 0; v < sc.graph.num_nodes(); ++v) {
      const PartId j = sc.partition.part(v);
      if (j == kNoPart) continue;
      auto& best = truth[static_cast<std::size_t>(j)];
      if (best == kNoNode || v < best) best = v;
    }
    bool ok = true;
    for (NodeId v = 0; v < sc.graph.num_nodes(); ++v) {
      const PartId j = sc.partition.part(v);
      if (j == kNoPart) continue;
      if (leaders[static_cast<std::size_t>(v)] !=
          truth[static_cast<std::size_t>(j)])
        ok = false;
    }
    rep.validated = true;
    rep.ok = ok;
    rep.validation = [ok](JsonWriter& w) {
      w.kv("oracle", "per-part minimum node id");
      w.kv("leaders_match", ok);
    };
  }
  return rep;
}

/// The engine algorithms other than shortcut: a fresh network and BFS tree
/// (the setup accounting), then the algorithm itself.
RunReport run_engine(const scenario::Scenario& sc, const RunOptions& o) {
  congest::Network net(sc.graph);
  configure_network(net, o);
  const SpanningTree tree = build_bfs_tree(net, /*root=*/0);
  EngineAccounting acc;
  acc.setup_rounds = net.total_rounds();
  acc.setup_messages = net.total_messages();

  RunReport rep;
  if (o.algo == "components") rep = run_components(net, tree, sc, o);
  else if (o.algo == "mst") rep = run_mst(net, tree, sc, o);
  else if (o.algo == "mincut") rep = run_mincut(net, tree, sc, o);
  else if (o.algo == "aggregate") rep = run_aggregate(net, tree, sc, o);
  else LCS_CHECK(false, "unknown --algo '" + o.algo + "' (see --help)");

  acc.algo_rounds = net.total_rounds() - acc.setup_rounds;
  acc.algo_messages = net.total_messages() - acc.setup_messages;
  for (const auto& [label, rounds] : net.charged_rounds())
    acc.charges.emplace_back(label, rounds);
  set_engine_body(rep, std::move(acc), net.threads());
  return rep;
}

// --------------------------------------------------------------- shortcut --

/// Cold `--algo=shortcut` path: run the backend's construction and capture
/// everything the report needs into a record. The BFS tree has already been
/// built on `net` (its rounds are the setup accounting; centralized
/// backends consume no further engine rounds).
ShortcutRunRecord build_shortcut_record(congest::Network& net,
                                        const SpanningTree& bfs_tree,
                                        const scenario::Scenario& sc,
                                        const ShortcutCacheKey& key,
                                        const backend::Backend& be) {
  ShortcutRunRecord rec;
  rec.spec_hash = key.spec_hash;
  rec.partition_hash = key.partition_hash;
  rec.seed = key.seed;
  rec.backend = be.name;
  rec.setup_rounds = net.total_rounds();
  rec.setup_messages = net.total_messages();

  backend::BackendOutput out =
      be.construct({sc, net, bfs_tree, key.seed});
  rec.tree = std::move(out.tree);
  rec.shortcut = std::move(out.shortcut);
  rec.stats = out.find_stats;
  rec.backend_stats = std::move(out.stats);
  rec.algo_rounds = net.total_rounds() - rec.setup_rounds;
  rec.algo_messages = net.total_messages() - rec.setup_messages;
  for (const auto& [label, rounds] : net.charged_rounds())
    rec.charges.emplace_back(label, rounds);
  return rec;
}

/// Render path shared by cold and warm runs: everything below is a pure
/// function of the record and the scenario, so the response bytes cannot
/// depend on which path produced the record. The shared quality block
/// (congestion, block parameter, dilation estimate — plus the rounds and
/// messages appended by run_one) uses identical keys for every backend;
/// only the construction-specific prefix differs, so backend cells line up
/// in sweeps and the comparison table.
RunReport shortcut_report(const ShortcutRunRecord& rec,
                          const scenario::Scenario& sc, const RunOptions& o) {
  const FindShortcutStats stats = rec.stats;
  const std::int32_t cong = congestion(sc.graph, sc.partition, rec.shortcut);
  const std::int32_t block =
      block_parameter(sc.graph, sc.partition, rec.shortcut);
  const std::int32_t dil =
      dilation_estimate(sc.graph, sc.partition, rec.shortcut);
  const bool default_backend = rec.backend == backend::kDefaultBackend;
  const std::vector<std::pair<std::string, std::int64_t>> backend_stats =
      rec.backend_stats;

  RunReport rep;
  rep.body = [stats, cong, block, dil, default_backend,
              backend_stats](JsonWriter& w) {
    if (default_backend) {
      w.kv("trials", stats.trials);
      w.kv("iterations", stats.iterations);
      w.kv("used_c", stats.used_c);
      w.kv("used_b", stats.used_b);
    } else {
      for (const auto& [label, value] : backend_stats) w.kv(label, value);
    }
    w.kv("congestion", cong);
    w.kv("block_parameter", block);
    w.kv("dilation_estimate", dil);
  };
  if (o.validate) {
    bool ok = true;
    try {
      validate_shortcut(sc.graph, rec.tree, sc.partition, rec.shortcut);
    } catch (const CheckFailure&) {
      ok = false;
    }
    const std::int64_t lemma1 = lemma1_dilation_bound(rec.tree, block);
    const bool dil_ok = dil <= lemma1;
    rep.validated = true;
    rep.ok = ok && dil_ok;
    rep.validation = [ok, dil_ok, lemma1](JsonWriter& w) {
      w.kv("oracle", "validate_shortcut + Lemma 1 dilation bound");
      w.kv("well_formed", ok);
      w.kv("lemma1_bound", lemma1);
      w.kv("dilation_within_bound", dil_ok);
    };
  }
  return rep;
}

/// `--algo=shortcut`: the record comes from the cache hook when it has one,
/// otherwise from a cold construction (stored back through the hook).
RunReport run_shortcut(const scenario::Scenario& sc, const RunOptions& o,
                       const RunHooks& hooks) {
  const std::string backend_name =
      o.backend.empty() ? std::string(backend::kDefaultBackend) : o.backend;
  const backend::Backend* be = backend::find_backend(backend_name);
  LCS_CHECK(be != nullptr, "unknown --backend '" + backend_name +
                               "' (registered: " +
                               backend::registered_backend_names() + ")");
  if (const std::string reason = be->applicable(sc); !reason.empty()) {
    std::string msg = "backend '" + backend_name +
                      "' is not applicable to scenario '" + sc.spec +
                      "': " + reason +
                      " (accepted backends for this scenario: ";
    bool first = true;
    for (const std::string& name : backend::applicable_backend_names(sc)) {
      if (!first) msg += ", ";
      msg += name;
      first = false;
    }
    msg += ")";
    LCS_CHECK(false, msg);
  }
  ShortcutCacheKey key;
  key.seed = o.seed;
  key.backend = backend_name;
  if (hooks.find_shortcut_record || hooks.store_shortcut_record) {
    key.spec_hash = spec_hash(sc.spec);
    key.partition_hash = partition_hash(sc.partition);
  }
  std::shared_ptr<const ShortcutRunRecord> record;
  if (hooks.find_shortcut_record) record = hooks.find_shortcut_record(key, sc);
  int threads = WorkerPool::resolve_threads(o.threads);
  if (!record) {
    congest::Network net(sc.graph);
    configure_network(net, o);
    const SpanningTree tree = build_bfs_tree(net, /*root=*/0);
    record = std::make_shared<const ShortcutRunRecord>(
        build_shortcut_record(net, tree, sc, key, *be));
    if (hooks.store_shortcut_record)
      hooks.store_shortcut_record(key, sc, record);
    threads = net.threads();
  }
  RunReport rep = shortcut_report(*record, sc, o);
  set_engine_body(rep,
                  {record->setup_rounds, record->setup_messages,
                   record->algo_rounds, record->algo_messages,
                   record->charges},
                  threads);
  return rep;
}

// ------------------------------------------------------------------ churn --

const char* verify_mode_name(dynamic::VerifyMode mode) {
  switch (mode) {
    case dynamic::VerifyMode::kEveryStep: return "step";
    case dynamic::VerifyMode::kSampled: return "sample";
    case dynamic::VerifyMode::kOff: return "off";
  }
  return "?";
}

void emit_quality(JsonWriter& w, const ForestQuality& q) {
  w.kv("congestion", q.congestion);
  w.kv("dilation", q.dilation);
  w.kv("product", q.product());
}

/// The wrapper spec and the --churn flag are two spellings of the same
/// thing; accept either, not both.
dynamic::ChurnSpec churn_spec_of(const RunOptions& o) {
  if (dynamic::is_churn_spec(o.scenario)) {
    LCS_CHECK(o.churn.empty(),
              "--churn and a churn: scenario wrapper are exclusive; put the "
              "parameters in one place");
    return dynamic::parse_churn_spec(o.scenario);
  }
  dynamic::ChurnSpec churn;
  churn.base = o.scenario;
  if (!o.churn.empty()) churn.params = dynamic::parse_churn_params(o.churn);
  return churn;
}

/// `--algo=churn`: drive the base scenario through the verified churn
/// stream; the body is the churn parameters and a per-checkpoint array.
/// The churn run itself is centralized (thread-invariant by construction);
/// under --validate the final snapshot is additionally solved by the
/// distributed engine (at --threads) and cross-checked against the
/// incrementally maintained forest, so the threads-1/2/4 golden gate
/// exercises a real engine run too.
RunReport churn_report(const scenario::Scenario& sc,
                       const dynamic::ChurnParams& p, const RunOptions& o) {
  dynamic::ChurnResult res =
      dynamic::run_churn(sc.graph, sc.partition.part_of, p);

  // Engine cross-check: the distributed MST over the final snapshot must
  // reproduce the maintained forest (weight and exact edge set, matched by
  // sequence number through the snapshot's edge-id order).
  RunReport rep;
  if (o.validate) {
    rep.validated = true;
    const dynamic::DynamicGraph::Snapshot& snap = *res.final_snapshot;
    if (is_connected(snap.graph)) {
      congest::Network net(snap.graph);
      configure_network(net, o);
      const SpanningTree tree = build_bfs_tree(net, /*root=*/0);
      ShortcutMstOptions opts;
      opts.seed = o.seed;
      const DistributedMst mst = mst_boruvka_shortcut(net, tree, opts);
      rep.threads = net.threads();

      std::vector<std::uint64_t> engine_seqs;
      engine_seqs.reserve(mst.edges.size());
      for (const EdgeId e : mst.edges)
        engine_seqs.push_back(snap.seq[static_cast<std::size_t>(e)]);
      std::sort(engine_seqs.begin(), engine_seqs.end());
      // Snapshot edges are sorted by seq, so this is already sorted.
      std::vector<std::uint64_t> maintained_seqs;
      Weight maintained_weight = 0;
      for (std::size_t e = 0; e < snap.in_msf.size(); ++e) {
        if (!snap.in_msf[e]) continue;
        maintained_seqs.push_back(snap.seq[e]);
        maintained_weight += snap.graph.edge(util::checked_cast<EdgeId>(e)).w;
      }
      rep.ok = mst.total_weight == maintained_weight &&
               engine_seqs == maintained_seqs;
      const Weight w_engine = mst.total_weight;
      const bool ok = rep.ok;
      rep.validation = [w_engine, maintained_weight, ok](JsonWriter& w) {
        w.kv("oracle", "distributed Boruvka MST over the final snapshot");
        w.kv("oracle_weight", w_engine);
        w.kv("maintained_weight", maintained_weight);
        w.kv("edges_match", ok);
      };
    } else {
      rep.validation = [](JsonWriter& w) {
        w.kv("oracle",
             "skipped (final snapshot disconnected; per-checkpoint "
             "incremental-vs-oracle checks still ran)");
      };
    }
  }

  rep.body = [p, res = std::move(res)](JsonWriter& w) {
    w.key("churn").begin_object();
    w.kv("steps", p.steps);
    w.kv("rate", p.rate);
    w.kv("dfrac", p.delete_frac);
    w.kv("seed", p.seed);
    w.kv("weight_lo", p.weight_lo);
    w.kv("weight_hi", p.weight_hi);
    w.kv("verify", verify_mode_name(p.verify));
    if (p.verify == dynamic::VerifyMode::kSampled)
      w.kv("vperiod", p.verify_period);
    w.kv("ops_per_step", res.ops_per_step);
    w.kv("skipped_inserts", res.skipped_inserts);
    w.kv("skipped_deletes", res.skipped_deletes);
    w.end_object();

    w.key("checkpoints").begin_array();
    for (const dynamic::ChurnCheckpoint& cp : res.checkpoints) {
      w.begin_object();
      w.kv("step", cp.step);
      w.kv("edges", cp.edges);
      w.kv("components", cp.components);
      w.kv("msf_weight", cp.msf_weight);
      w.kv("msf_edges", cp.msf_edges);
      w.key("quality").begin_object();
      w.key("maintained").begin_object();
      emit_quality(w, cp.maintained);
      w.end_object();
      w.key("fresh").begin_object();
      emit_quality(w, cp.fresh);
      w.end_object();
      w.end_object();
      w.key("counters").begin_object();
      w.kv("inserts", cp.counters.inserts);
      w.kv("deletes", cp.counters.deletes);
      w.kv("msf_grows", cp.counters.msf_grows);
      w.kv("msf_swaps", cp.counters.msf_swaps);
      w.kv("msf_replacements", cp.counters.msf_replacements);
      w.kv("msf_splits", cp.counters.msf_splits);
      w.kv("uf_rebuilds", cp.counters.uf_rebuilds);
      w.kv("uf_unions", cp.counters.uf_unions);
      w.end_object();
      w.kv("full_verifications", cp.full_verifications);
      w.end_object();
    }
    w.end_array();
  };
  return rep;
}

// ------------------------------------------------------------------ sweep --

/// One `--sweep key=lo..hi[:steps|xfactor]` directive, expanded to the
/// integer value of `key` at every sweep point.
struct Sweep {
  std::string key;
  std::vector<std::int64_t> values;
};

/// Integer with an optional k/M/G decimal suffix ("250k" = 250000).
std::int64_t parse_scaled_int(std::string_view token, const char* what) {
  std::int64_t mult = 1;
  if (!token.empty()) {
    switch (token.back()) {
      case 'k': mult = 1'000; break;
      case 'M': mult = 1'000'000; break;
      case 'G': mult = 1'000'000'000; break;
      default: break;
    }
    if (mult != 1) token.remove_suffix(1);
  }
  std::int64_t out{};
  const auto res = std::from_chars(token.data(), token.data() + token.size(), out);
  LCS_CHECK(res.ec == std::errc() && res.ptr == token.data() + token.size(),
            std::string("--sweep: malformed ") + what + " '" +
                std::string(token) + "'");
  std::int64_t scaled{};
  LCS_CHECK(!__builtin_mul_overflow(out, mult, &scaled),
            std::string("--sweep: ") + what + " overflows 64 bits");
  return scaled;
}

Sweep parse_sweep(const std::string& directive) {
  const auto eq = directive.find('=');
  LCS_CHECK(eq != std::string::npos && eq > 0,
            "--sweep wants key=lo..hi[:steps|xfactor], got '" + directive + "'");
  Sweep sweep;
  sweep.key = directive.substr(0, eq);

  std::string_view rest = std::string_view(directive).substr(eq + 1);
  std::string_view step_spec = "x2";  // default: double per point
  if (const auto colon = rest.find(':'); colon != std::string_view::npos) {
    step_spec = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }
  const auto dots = rest.find("..");
  LCS_CHECK(dots != std::string_view::npos,
            "--sweep range wants lo..hi, got '" + std::string(rest) + "'");
  const std::int64_t lo = parse_scaled_int(rest.substr(0, dots), "range start");
  const std::int64_t hi = parse_scaled_int(rest.substr(dots + 2), "range end");
  LCS_CHECK(lo >= 1 && lo <= hi, "--sweep range needs 1 <= lo <= hi");

  if (!step_spec.empty() && step_spec.front() == 'x') {
    // Geometric: lo, lo*f, lo*f^2, ... up to the last point <= hi.
    const std::string f_str(step_spec.substr(1));
    double factor{};
    const auto res = std::from_chars(f_str.data(), f_str.data() + f_str.size(),
                                     factor);
    LCS_CHECK(res.ec == std::errc() && res.ptr == f_str.data() + f_str.size() &&
                  factor > 1.0,
              "--sweep factor wants x<number greater than 1>, got 'x" + f_str +
                  "'");
    // Round each accumulated value before the range test so floating-point
    // drift (1M reached as 10^6 * (1 + 2^-52)) cannot drop the endpoint —
    // and a rounded point can never exceed the requested hi.
    std::int64_t iterations = 0;
    for (double v = static_cast<double>(lo);; v *= factor) {
      // A factor of 1 + epsilon would spin near-forever before the point
      // cap below could fire (adjacent duplicates are dropped), so bound
      // the raw iteration count too: 10^6 covers every factor down to
      // ~1.0001 across the whole 64-bit range.
      LCS_CHECK(++iterations <= 1'000'000,
                "--sweep factor is too close to 1 to terminate");
      if (!(v < 0x1p62)) break;  // llround stays defined; covers NaN/inf
      const std::int64_t point = std::llround(v);
      if (point > hi) break;
      if (sweep.values.empty() || point != sweep.values.back())
        sweep.values.push_back(point);
      LCS_CHECK(sweep.values.size() <= 10000,
                "--sweep expands to more than 10000 points; use a larger "
                "factor");
    }
  } else {
    // Linear: `steps` evenly spaced points from lo to hi inclusive.
    const std::int64_t steps = parse_scaled_int(step_spec, "step count");
    LCS_CHECK(steps >= 1 && (steps >= 2 || lo == hi),
              "--sweep wants at least 2 steps (or lo == hi)");
    LCS_CHECK(steps <= 10000, "--sweep wants at most 10000 points");
    for (std::int64_t i = 0; i < steps; ++i) {
      // 128-bit intermediate: (hi - lo) * i can exceed 64 bits even though
      // hi and lo individually fit.
      const std::int64_t point =
          steps == 1 ? lo
                     : lo + static_cast<std::int64_t>(
                                static_cast<__int128>(hi - lo) * i /
                                (steps - 1));
      if (sweep.values.empty() || point != sweep.values.back())
        sweep.values.push_back(point);
    }
  }
  return sweep;
}

/// Pre-expansion key check: a sweep over a key the scenario family never
/// reads must fail before any point is resolved — an N-point sweep of a
/// typo'd key would otherwise burn N generator runs to produce N copies of
/// the same unknown-parameter diagnosis (or, for a family that ignored the
/// key, N identical points presented as a scaling curve). Families that
/// did not declare their vocabulary (externally registered) skip the check
/// and fail at the first point as before.
void check_sweep_key(const std::string& spec, const std::string& key) {
  const scenario::Family* family =
      scenario::find_family(scenario::parse_spec(spec).family());
  if (family == nullptr) return;  // unknown family: diagnosed at resolution
  const std::vector<std::string> keys = scenario::accepted_param_keys(*family);
  if (keys.empty()) return;
  if (std::find(keys.begin(), keys.end(), key) != keys.end()) return;
  std::string msg = "--sweep key '" + key + "' is not a parameter of scenario family '" +
                    family->name + "' (accepted: ";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += keys[i];
  }
  msg += ")";
  LCS_CHECK(false, msg);
}

/// The scenario spec with parameter `key` set to `value`: an existing
/// `key=` token is replaced in place, otherwise the parameter is appended.
/// Purely textual so the family's own parser stays the single authority on
/// the vocabulary (an unknown key still fails loudly in make_scenario).
std::string spec_with_param(const std::string& spec, const std::string& key,
                            std::int64_t value) {
  const std::string assignment = key + "=" + std::to_string(value);
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return spec + ":" + assignment;

  std::string out = spec.substr(0, colon + 1);
  std::string_view rest = std::string_view(spec).substr(colon + 1);
  bool replaced = false;
  bool first = true;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view token = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                          : rest.substr(comma + 1);
    if (!first) out += ',';
    first = false;
    if (token.substr(0, key.size() + 1) == key + "=") {
      out += assignment;
      replaced = true;
    } else {
      out += token;
    }
  }
  if (!replaced) out += (first ? "" : ",") + assignment;
  return out;
}

/// Runs one (algo, scenario) cell and emits its report object into `w`:
/// the runner for `o.algo` supplies the body, validation and engine thread
/// count; the envelope around them is written here alone.
/// Returns 0, or 1 when --validate found a mismatch.
int run_one(const RunOptions& o, const RunHooks& hooks, JsonWriter& w) {
  // lcs-lint: allow(D2) wall_ms report field: explicitly timed, stripped by --no-timing
  const auto t0 = std::chrono::steady_clock::now();
  const std::optional<dynamic::ChurnSpec> churn =
      o.algo == "churn" ? std::optional(churn_spec_of(o)) : std::nullopt;
  const std::shared_ptr<const scenario::Scenario> sc_ptr =
      resolve_scenario(hooks, churn ? churn->base : o.scenario);
  const scenario::Scenario& sc = *sc_ptr;
  if (!o.save_graph_path.empty()) save_binary(sc.graph, o.save_graph_path);

  // `--algo=none` stops after scenario resolution: no engine, no BFS tree,
  // no algorithm — the report is just the scenario section. This is the
  // cheap probe for generator scaling studies (`--sweep` over n) and the
  // CI large-n generation smoke.
  RunReport rep;
  if (churn) rep = churn_report(sc, churn->params, o);
  else if (o.algo == "shortcut") rep = run_shortcut(sc, o, hooks);
  else if (o.algo != "none") rep = run_engine(sc, o);
  const double wall_ms =
      // lcs-lint: allow(D2) wall_ms report field: explicitly timed
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();

  w.begin_object();
  w.kv("schema", std::int64_t{1});
  w.kv("algorithm", o.algo);

  // A churn report names its own spec and nests the base scenario's fields
  // under "base".
  w.key("scenario").begin_object();
  if (churn) {
    w.kv("spec", o.scenario);
    w.kv("family", "churn");
    w.key("base").begin_object();
  }
  w.kv("spec", sc.spec);
  w.kv("family", sc.family);
  w.kv("nodes", sc.graph.num_nodes());
  w.kv("edges", sc.graph.num_edges());
  w.kv("total_weight", sc.graph.total_weight());
  w.kv("parts", sc.partition.num_parts);
  // Both metrics below are BFS sweeps over the whole graph — priced like
  // the oracles, so large-n runs only pay for them on request.
  if (o.metrics) {
    w.kv("diameter_lb", diameter_double_sweep(sc.graph));
    w.kv("max_part_diameter", max_part_diameter(sc.graph, sc.partition));
  }
  if (churn) w.end_object();
  w.end_object();

  w.key("config").begin_object();
  w.kv("seed", o.seed);
  // Only non-default backends mark the report: default-backend documents
  // stay byte-identical to the pre-registry pipeline (the golden contract).
  if (!o.backend.empty() && o.backend != backend::kDefaultBackend)
    w.kv("backend", o.backend);
  w.kv("validate", o.validate);
  if (o.algo == "components") w.kv("fail_rate", o.fail_rate);
  w.end_object();

  if (rep.body) rep.body(w);

  w.key("validation").begin_object();
  w.kv("checked", rep.validated);
  if (rep.validated) {
    w.kv("ok", rep.ok);
    if (rep.validation) rep.validation(w);
  }
  w.end_object();

  if (o.timing) {
    w.key("timing").begin_object();
    if (rep.threads >= 0) w.kv("threads", rep.threads);
    w.kv("wall_ms", wall_ms);
    w.end_object();
  }
  w.end_object();

  if (rep.validated && !rep.ok) {
    std::cerr << "VALIDATION FAILED for --algo=" << o.algo
              << " --scenario=" << o.scenario << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int run_document(const RunOptions& o, const RunHooks& hooks,
                 std::string& out) {
  LCS_CHECK(!o.scenario.empty(), "missing --scenario (see --help)");
  LCS_CHECK(!o.algo.empty(), "missing --algo (see --help)");
  LCS_CHECK(o.sweep.empty() || o.save_graph_path.empty(),
            "--save-graph with --sweep would overwrite the same path at "
            "every point; save single runs instead");
  LCS_CHECK(o.churn.empty() || o.algo == "churn",
            "--churn only applies to --algo=churn");
  LCS_CHECK(o.backend.empty() || o.algo == "shortcut",
            "--backend only applies to --algo=shortcut");
  LCS_CHECK(o.algo == "churn" || !dynamic::is_churn_spec(o.scenario),
            "a churn: scenario wrapper requires --algo=churn");
  LCS_CHECK(o.sweep.empty() || !dynamic::is_churn_spec(o.scenario),
            "--sweep cannot rewrite a churn: wrapper spec; pass the base "
            "spec via --scenario and the churn parameters via --churn");

  // Buffer the whole document and hand it back only once it is complete: a
  // failing run (bad spec, mid-sweep CheckFailure) must never leave partial
  // JSON in `out`.
  std::ostringstream buffer;
  JsonWriter w(buffer);

  int rc = 0;
  if (o.sweep.empty()) {
    rc = run_one(o, hooks, w);
  } else {
    // Sweep mode: one report object per point, collected into a single
    // array. Every point is an independent full run (fresh graph, network,
    // and seed), so each array element equals the report of the equivalent
    // single invocation.
    const Sweep sweep = parse_sweep(o.sweep);
    check_sweep_key(o.scenario, sweep.key);
    w.begin_array();
    for (const std::int64_t value : sweep.values) {
      RunOptions point = o;
      point.scenario = spec_with_param(o.scenario, sweep.key, value);
      rc = std::max(rc, run_one(point, hooks, w));
    }
    w.end_array();
  }
  w.finish();

  out += buffer.str();
  return rc;
}

std::string error_document(const char* type, const std::string& message,
                           int exit_code) {
  std::ostringstream buffer;
  JsonWriter w(buffer);
  w.begin_object();
  w.key("error").begin_object();
  w.kv("type", type);
  w.kv("message", message);
  w.kv("exit_code", static_cast<std::int64_t>(exit_code));
  w.end_object();
  w.end_object();
  w.finish();
  return buffer.str();
}

}  // namespace lcs::driver
