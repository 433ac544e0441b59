#include "run.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "engine_op.h"
#include "json_util.h"
#include "serve_client.h"
#include "stats.h"
#include "trace.h"
#include "util/check.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace lcs::bench {

namespace {

/// The first ops of every run are re-run with validate=true at one thread.
constexpr int kValidatedOps = 2;
/// Cycles through the inputs stop here whatever the time budget says.
constexpr int kMaxCycles = 50;
constexpr std::size_t kServeSetups = 5;
constexpr std::size_t kServeMaxPasses = 50;

class Tally {
 public:
  void record(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 5) std::cerr << "lcs_bench: FAILED " << why << "\n";
  }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::string socket_path(const RunConfig& cfg) {
  static int sessions = 0;
  return cfg.out_dir + "/serve-" + std::to_string(::getpid()) + "-" +
         std::to_string(++sessions) + ".sock";
}

/// {"n", "p50", "q1", "q3", "tail_percentile", "tail"} of `v` times `scale`.
void write_summary(JsonWriter& w, std::string_view key, std::vector<double> v,
                   double scale) {
  for (double& x : v) x *= scale;
  const auto q = quartiles(v);
  const TailPercentile tail = tail_percentile(v);
  w.key(key).begin_object();
  w.kv("n", static_cast<std::int64_t>(v.size()));
  w.kv("p50", median(v)).kv("q1", q[0]).kv("q3", q[2]);
  w.kv("tail_percentile", tail.percentile).kv("tail", tail.value);
  w.end_object();
}

std::string finish_line(const std::ostringstream& out) {
  std::string s = out.str();
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

std::vector<Instance> engine_inputs(const RunConfig& cfg) {
  const Workload& w = *cfg.workload;
  std::vector<Instance> inputs;
  const int count = cfg.smoke ? kSmokeInstances : w.instances;
  for (int i = 0; i < count; ++i)
    inputs.push_back(engine_instance(w, cfg.seed, i, cfg.smoke));
  return inputs;
}

// ------------------------------------------------------------ engine runs --

RunResult engine_run(const RunConfig& cfg) {
  const std::vector<Instance> inputs = engine_inputs(cfg);
  const int count = static_cast<int>(inputs.size());
  Tally tally;
  std::vector<double> run_s, setup_s, rss;
  std::vector<std::optional<EngineOp>> first(inputs.size());

  // Cycle through the inputs until the time is up; the first cycle always
  // completes, so the simulated counts below depend on the seed alone.
  const double deadline = now_s() + cfg.seconds;
  for (int i = 0; i < count * kMaxCycles; ++i) {
    if (i >= count && (cfg.smoke || now_s() >= deadline)) break;
    const auto k = static_cast<std::size_t>(i % count);
    EngineOp op = run_engine_op(inputs[k], /*traced=*/false, i < kValidatedOps);
    if (op.ok && first[k] && op.payload_hash != first[k]->payload_hash) {
      op.ok = false;
      op.why = "report bytes differ between reps of " + inputs[k].spec;
    }
    tally.record(op.ok, op.why);
    if (!op.ok) continue;
    run_s.push_back(op.run_s);
    setup_s.push_back(op.setup_s);
    rss.push_back(op.peak_rss_mb);
    if (!first[k]) first[k] = std::move(op);
  }
  LCS_CHECK(!run_s.empty(), "no engine operation succeeded");

  double rounds = 0.0, messages = 0.0, inputs_counted = 0.0;
  std::int64_t total_rounds = 0, total_messages = 0;
  for (const auto& op : first) {
    if (!op) continue;
    const std::int64_t r = op->result.at("setup_rounds") + op->result.at("rounds");
    const std::int64_t m =
        op->result.at("setup_messages") + op->result.at("messages");
    total_rounds += r;
    total_messages += m;
    rounds += static_cast<double>(r);
    messages += static_cast<double>(m);
    inputs_counted += 1.0;
  }

  RunResult res;
  res.attempted = tally.attempted;
  res.failed = tally.failed;
  res.metrics = {
      {"latency_ms", median(run_s) * 1e3, "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", median(rss), "MB"},
      {"sim_rounds", rounds / inputs_counted, "count"},
      {"sim_messages", messages / inputs_counted, "count"},
  };
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.kv("workload", cfg.workload->name).kv("seed", cfg.seed);
  w.kv("inputs", static_cast<std::int64_t>(count));
  write_summary(w, "latency_ms", run_s, 1e3);
  write_summary(w, "setup_ms", setup_s, 1e3);
  write_summary(w, "peak_rss_mb", rss, 1.0);
  w.kv("first_cycle_rounds", total_rounds);
  w.kv("first_cycle_messages", total_messages);
  w.end_object();
  w.finish();
  res.detail = finish_line(out);
  return res;
}

// ------------------------------------------------------------- serve runs --

struct ServePass {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> latency_s;  ///< per request, in send order
  std::int64_t rounds = 0;        ///< summed over the replies
  std::int64_t messages = 0;
  std::string stats;  ///< the daemon's {"cmd":"stats"} document
};

/// Checks one reply; returns the first failed check or "". `reference` is
/// the first timing-free reply to the same key (set on first sight).
std::string check_reply(const ServeKey& key, const std::string& id,
                        const ServeSession::Reply& reply,
                        std::string& reference, ServePass& pass) {
  if (reply.id != id) return "reply id '" + reply.id + "' for request " + id;
  if (reply.exit != 0) return "exit=" + std::to_string(reply.exit);
  const JsonValue doc = parse_json(reply.payload);
  if (key.validate &&
      !member(member(doc, "validation"), "ok").as_bool("validation.ok"))
    return "validation.ok is false";
  for (const char* section : {"setup", "result"}) {
    if (const JsonValue* s = doc.find(section, "report")) {
      pass.rounds += member(*s, "rounds").as_int("rounds");
      pass.messages += member(*s, "messages").as_int("messages");
    }
  }
  const std::string stable =
      key.timing ? reply.payload.substr(0, reply.payload.rfind("\"timing\""))
                 : reply.payload;
  if (reference.empty()) reference = stable;
  else if (reference != stable)
    return "payload differs from the first reply to this key";
  return "";
}

/// Sends `keys` in `order` to a fresh daemon that preloaded `preload`.
ServePass serve_pass_run(const RunConfig& cfg,
                         const std::vector<std::string>& preload,
                         const std::vector<ServeKey>& keys,
                         const std::vector<std::size_t>& order,
                         std::vector<std::string>& reference, Tally& tally) {
  ServePass pass;
  ServeSession session(socket_path(cfg), preload);
  pass.setup_s = session.setup_s();
  for (const std::size_t idx : order) {
    const ServeKey& key = keys[idx];
    const std::string id = "k" + std::to_string(idx);
    std::string why;
    const double t0 = now_s();
    double t1 = t0;
    try {
      const ServeSession::Reply reply = session.request(key.request(id));
      t1 = now_s();
      why = check_reply(key, id, reply, reference[idx], pass);
    } catch (const std::exception& e) {
      t1 = now_s();
      why = e.what();
    }
    pass.latency_s.push_back(t1 - t0);
    tally.record(why.empty(), key.run.algo + " " + key.backend + " on " +
                                  key.run.spec + ": " + why);
  }
  try {
    pass.stats = session.request(R"({"cmd":"stats"})").payload;
    const Child::Exit exit = session.quit();
    pass.peak_rss_mb = exit.peak_rss_mb;
    tally.record(exit.code == 0,
                 "lcs_serve exited with " + std::to_string(exit.code));
  } catch (const std::exception& e) {
    tally.record(false, std::string("lcs_serve shutdown: ") + e.what());
  }
  return pass;
}

/// Every integer in a document of nested objects, as "a.b.c" -> value.
void flatten(const JsonValue& v, const std::string& prefix,
             std::map<std::string, std::int64_t>& out) {
  for (const auto& [key, value] : v.as_object("stats")) {
    const std::string name = prefix.empty() ? key : prefix + "." + key;
    if (value.is_object()) flatten(value, name, out);
    else if (is_integer(value)) out[name] = value.as_int(name);
  }
}

/// The daemon's counters, flattened; empty when the stats request failed
/// (that failure is already counted).
std::map<std::string, std::int64_t> daemon_stats(const ServePass& pass) {
  std::map<std::string, std::int64_t> out;
  if (!pass.stats.empty()) flatten(parse_json(pass.stats), "", out);
  return out;
}

RunResult serve_run(const RunConfig& cfg) {
  const std::vector<ServeKey> keys = serve_keys(cfg.seed, cfg.smoke);
  const std::vector<std::size_t> order = serve_pass(cfg.seed, keys.size());
  std::vector<std::string> reference(keys.size());
  Tally tally;
  std::vector<ServePass> passes;
  const double deadline = now_s() + cfg.seconds;
  do {
    passes.push_back(serve_pass_run(cfg, serve_scenarios(cfg.smoke), keys,
                                    order, reference, tally));
  } while (!cfg.smoke && now_s() < deadline &&
           passes.size() < kServeMaxPasses);

  std::vector<double> setups, pass_ms, rss, all_latency;
  for (const ServePass& p : passes) {
    setups.push_back(p.setup_s);
    pass_ms.push_back(mean(p.latency_s));
    rss.push_back(p.peak_rss_mb);
    all_latency.insert(all_latency.end(), p.latency_s.begin(),
                       p.latency_s.end());
  }
  // Set-up alone, until the median has enough samples.
  while (!cfg.smoke && setups.size() < kServeSetups) {
    ServeSession session(socket_path(cfg), serve_scenarios(false));
    setups.push_back(session.setup_s());
    const Child::Exit exit = session.quit();
    tally.record(exit.code == 0,
                 "lcs_serve exited with " + std::to_string(exit.code));
  }

  const double requests = static_cast<double>(order.size());
  RunResult res;
  res.attempted = tally.attempted;
  res.failed = tally.failed;
  res.metrics = {
      {"latency_ms", median(pass_ms) * 1e3, "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", median(rss), "MB"},
      {"sim_rounds", static_cast<double>(passes[0].rounds) / requests, "count"},
      {"sim_messages", static_cast<double>(passes[0].messages) / requests,
       "count"},
  };

  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.kv("workload", cfg.workload->name).kv("seed", cfg.seed);
  w.kv("passes", static_cast<std::int64_t>(passes.size()));
  w.kv("requests_per_pass", static_cast<std::int64_t>(order.size()));
  write_summary(w, "pass_mean_latency_ms", pass_ms, 1e3);
  write_summary(w, "request_latency_ms", all_latency, 1e3);
  write_summary(w, "setup_ms", setups, 1e3);
  w.kv("req_per_s", 1.0 / mean(all_latency));
  w.kv("pass_rounds", passes[0].rounds).kv("pass_messages", passes[0].messages);
  w.key("daemon_stats").begin_object();
  for (const auto& [k, v] : daemon_stats(passes.back())) w.kv(k, v);
  w.end_object();
  w.end_object();
  w.finish();
  res.detail = finish_line(out);
  return res;
}

// ------------------------------------------------------------ traced runs --

/// Pairs of untraced and traced ops over `inputs` until `deadline`; the
/// order inside a pair alternates. The replica is trusted only while every
/// traced op repeats its untraced twin's counts and result.
void traced_pairs(const RunConfig& cfg, const std::vector<Instance>& inputs,
                  double deadline, Tally& tally, std::vector<EngineOp>& untraced,
                  std::vector<EngineOp>& traced, bool& replica_ok) {
  const int count = static_cast<int>(inputs.size());
  const int min_pairs = std::min(count, cfg.smoke ? 1 : 2);
  for (int i = 0; i < count * kMaxCycles; ++i) {
    if (i >= min_pairs && (cfg.smoke || now_s() >= deadline)) break;
    const Instance& inst = inputs[static_cast<std::size_t>(i % count)];
    EngineOp plain, replica;
    if (i % 2 == 0) {
      plain = run_engine_op(inst, false, false);
      replica = run_engine_op(inst, true, false);
    } else {
      replica = run_engine_op(inst, true, false);
      plain = run_engine_op(inst, false, false);
    }
    tally.record(plain.ok, plain.why);
    tally.record(replica.ok, replica.why);
    if (!plain.ok || !replica.ok) continue;
    if (plain.result != replica.result && replica_ok) {
      replica_ok = false;
      std::cerr << "lcs_bench: the traced replica no longer repeats "
                << inst.algo << " on " << inst.spec
                << "; layer numbers describe the replica, not the library\n";
    }
    untraced.push_back(std::move(plain));
    traced.push_back(std::move(replica));
  }
  LCS_CHECK(!traced.empty(), "no traced operation succeeded");
}

/// Serve-mix: the serve layer, from one pass. Writes into `w` the medians
/// of every key's first request (driver and engine) and of its repeat
/// (caches), the first-request medians per algorithm and per backend, and
/// the cache ratios. The serve layer is on no engine workload's path, so
/// these numbers stay in serve-mix's detail line.
void serve_layer_pass(const RunConfig& cfg, Tally& tally, JsonWriter& w) {
  const std::vector<ServeKey> keys = serve_keys(cfg.seed, cfg.smoke);
  const std::vector<std::size_t> order = serve_pass(cfg.seed, keys.size());
  std::vector<std::string> reference(keys.size());
  const ServePass pass = serve_pass_run(cfg, serve_scenarios(cfg.smoke), keys,
                                        order, reference, tally);

  const auto split = pass.latency_s.begin() +
                     static_cast<std::ptrdiff_t>(keys.size());
  w.kv("first_p50_ms", median({pass.latency_s.begin(), split}) * 1e3);
  w.kv("repeat_p50_ms", median({split, pass.latency_s.end()}) * 1e3);
  std::map<std::string, std::vector<double>> by_algo, by_backend;
  for (std::size_t pos = 0; pos < keys.size(); ++pos) {
    const ServeKey& key = keys[order[pos]];
    by_algo[key.run.algo].push_back(pass.latency_s[pos]);
    if (!key.backend.empty())
      by_backend[key.backend].push_back(pass.latency_s[pos]);
  }
  w.key("first_p50_ms_by_algo").begin_object();
  for (const auto& [algo, v] : by_algo) w.kv(algo, median(v) * 1e3);
  w.end_object();
  w.key("first_p50_ms_by_backend").begin_object();
  for (const auto& [backend, v] : by_backend) w.kv(backend, median(v) * 1e3);
  w.end_object();

  std::map<std::string, std::int64_t> st = daemon_stats(pass);
  const auto ratio = [](std::int64_t hits, std::int64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  w.kv("memo_hit_ratio",
       ratio(st["serve.response_memo_hits"],
             st["serve.requests"] - st["serve.response_memo_hits"]));
  w.kv("record_hit_ratio", ratio(st["serve.shortcuts.memory_hits"],
                                 st["serve.shortcuts.constructed"]));
  w.kv("scenario_hit_ratio", ratio(st["serve.scenarios.memory_hits"],
                                   st["serve.scenarios.generated"]));
  w.kv("generated", st["serve.scenarios.generated"]);
  w.kv("constructed", st["serve.shortcuts.constructed"]);
}

/// The mix's mst and aggregate keys, once each: the engine layers beneath
/// the daemon, traced like an engine workload.
std::vector<Instance> serve_engine_inputs(const RunConfig& cfg) {
  std::vector<Instance> inputs;
  for (const ServeKey& key : serve_keys(cfg.seed, cfg.smoke)) {
    if (key.run.algo != "mst" && key.run.algo != "aggregate") continue;
    const bool seen =
        std::any_of(inputs.begin(), inputs.end(), [&](const Instance& i) {
          return i.algo == key.run.algo && i.spec == key.run.spec &&
                 i.seed == key.run.seed;
        });
    if (!seen) inputs.push_back(key.run);
  }
  return inputs;
}

/// Median over ops of `f(op)`.
template <class F>
double op_median(const std::vector<EngineOp>& ops, F f) {
  std::vector<double> v;
  for (const EngineOp& op : ops) v.push_back(f(op));
  return median(v);
}

std::vector<Metric> layer_metrics(const std::vector<EngineOp>& untraced,
                                  const std::vector<EngineOp>& traced,
                                  bool replica_ok) {
  std::vector<std::map<std::string, SpanTotals>> totals;
  for (const EngineOp& op : traced) totals.push_back(span_totals(op.spans));
  const auto span_median = [&](const char* name, auto field) {
    std::vector<double> v;
    for (const auto& t : totals) {
      const auto it = t.find(name);
      v.push_back(it == t.end() ? 0.0 : field(it->second));
    }
    return median(v);
  };
  const auto ms = [](const SpanTotals& t) { return t.total_s * 1e3; };
  const auto self_ms = [](const SpanTotals& t) { return t.self_s * 1e3; };
  const auto rounds = [](const SpanTotals& t) {
    return static_cast<double>(t.rounds);
  };
  const auto messages = [](const SpanTotals& t) {
    return static_cast<double>(t.messages);
  };
  const auto calls = [](const SpanTotals& t) {
    return static_cast<double>(t.calls);
  };
  const auto all_rounds = [](const EngineOp& op) {
    return static_cast<double>(op.result.at("setup_rounds") +
                               op.result.at("rounds"));
  };
  const auto all_messages = [](const EngineOp& op) {
    return static_cast<double>(op.result.at("setup_messages") +
                               op.result.at("messages"));
  };
  FindCounters sum;
  for (const EngineOp& op : traced) {
    sum.trials += op.find.trials;
    sum.successful_trials += op.find.successful_trials;
    sum.part_iterations += op.find.part_iterations;
    sum.parts_retired += op.find.parts_retired;
  }
  const double overhead =
      op_median(traced, [](const EngineOp& op) { return op.run_s; }) /
          op_median(untraced, [](const EngineOp& op) { return op.run_s; }) -
      1.0;

  return {
      {"scenario.resolve_ms", span_median("scenario.resolve", ms), "ms"},
      {"congest.init_ms", span_median("congest.init", ms), "ms"},
      {"congest.us_per_round",
       op_median(untraced,
                 [&](const EngineOp& op) { return op.run_s * 1e6 / all_rounds(op); }),
       "us"},
      {"congest.ns_per_message",
       op_median(untraced,
                 [&](const EngineOp& op) {
                   return op.run_s * 1e9 / all_messages(op);
                 }),
       "ns"},
      {"tree.bfs_ms", span_median("tree.bfs", ms), "ms"},
      {"tree.bfs_rounds", span_median("tree.bfs", rounds), "count"},
      {"shortcut.calls", span_median("shortcut.find", calls), "count"},
      {"shortcut.trials",
       op_median(traced,
                 [](const EngineOp& op) {
                   return static_cast<double>(op.find.trials);
                 }),
       "count"},
      {"shortcut.iterations",
       op_median(traced,
                 [](const EngineOp& op) {
                   return static_cast<double>(op.find.iterations);
                 }),
       "count"},
      {"shortcut.trial_success_ratio",
       static_cast<double>(sum.successful_trials) /
           static_cast<double>(sum.trials),
       "ratio"},
      {"shortcut.good_part_ratio",
       static_cast<double>(sum.parts_retired) /
           static_cast<double>(sum.part_iterations),
       "ratio"},
      {"shortcut.find_ms", span_median("shortcut.find", ms), "ms"},
      {"shortcut.find_self_ms", span_median("shortcut.find", self_ms), "ms"},
      {"shortcut.find_rounds", span_median("shortcut.find", rounds), "count"},
      {"shortcut.find_messages", span_median("shortcut.find", messages),
       "count"},
      {"shortcut.core_ms", span_median("shortcut.core", ms), "ms"},
      {"shortcut.core_rounds", span_median("shortcut.core", rounds), "count"},
      {"shortcut.core_messages", span_median("shortcut.core", messages),
       "count"},
      {"shortcut.state_ms", span_median("shortcut.state", ms), "ms"},
      {"shortcut.state_rounds", span_median("shortcut.state", rounds), "count"},
      {"shortcut.verify_ms", span_median("shortcut.verify", ms), "ms"},
      {"shortcut.verify_rounds", span_median("shortcut.verify", rounds),
       "count"},
      {"shortcut.termination_ms", span_median("shortcut.termination", ms),
       "ms"},
      {"shortcut.termination_rounds",
       span_median("shortcut.termination", rounds), "count"},
      {"apps.phases", span_median("apps.exchange", calls), "count"},
      {"apps.exchange_ms", span_median("apps.exchange", ms), "ms"},
      {"apps.exchange_rounds", span_median("apps.exchange", rounds), "count"},
      {"apps.route_ms", span_median("apps.route", ms), "ms"},
      {"apps.route_rounds", span_median("apps.route", rounds), "count"},
      {"apps.route_messages", span_median("apps.route", messages), "count"},
      {"apps.self_ms", span_median("apps.run", self_ms), "ms"},
      {"trace.overhead_ratio", overhead, "ratio"},
      {"trace.replica_ok", replica_ok ? 1.0 : 0.0, "bool"},
  };
}

/// Spans of the first traced op and per-name totals over all of them.
void write_trace_file(const RunConfig& cfg, const std::vector<EngineOp>& traced) {
  const std::string path =
      cfg.out_dir + "/" + cfg.workload->name + ".trace.json";
  std::ofstream file(path);
  LCS_CHECK(file.good(), "cannot write " + path);
  JsonWriter w(file, 1);
  w.begin_object();
  w.kv("workload", cfg.workload->name).kv("seed", cfg.seed);
  w.kv("traced_ops", static_cast<std::int64_t>(traced.size()));
  w.key("totals_over_ops").begin_object();
  std::map<std::string, SpanTotals> sum;
  for (const EngineOp& op : traced) {
    for (const auto& [name, t] : span_totals(op.spans)) {
      SpanTotals& s = sum[name];
      s.calls += t.calls;
      s.total_s += t.total_s;
      s.self_s += t.self_s;
      s.rounds += t.rounds;
      s.messages += t.messages;
    }
  }
  for (const auto& [name, t] : sum) {
    w.key(name).begin_object();
    w.kv("calls", t.calls).kv("total_ms", t.total_s * 1e3);
    w.kv("self_ms", t.self_s * 1e3).kv("rounds", t.rounds);
    w.kv("messages", t.messages).end_object();
  }
  w.end_object();
  const std::vector<Span>& spans = traced.front().spans;
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  w.key("first_op_spans").begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.kv("name", s.name).kv("parent", static_cast<std::int64_t>(s.parent));
    w.kv("start_ms", (s.start - t0) * 1e3).kv("end_ms", (s.end - t0) * 1e3);
    w.kv("rounds", s.rounds).kv("messages", s.messages);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.finish();
}

RunResult traced_run(const RunConfig& cfg) {
  const double deadline = now_s() + cfg.seconds;
  Tally tally;
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.kv("workload", cfg.workload->name).kv("seed", cfg.seed);

  const bool mix = cfg.workload->serve;
  const std::vector<Instance> inputs =
      mix ? serve_engine_inputs(cfg) : engine_inputs(cfg);
  if (mix) serve_layer_pass(cfg, tally, w);

  std::vector<EngineOp> untraced, traced;
  bool replica_ok = true;
  traced_pairs(cfg, inputs, deadline, tally, untraced, traced, replica_ok);
  write_trace_file(cfg, traced);

  RunResult res;
  res.attempted = tally.attempted;
  res.failed = tally.failed;
  res.metrics = layer_metrics(untraced, traced, replica_ok);
  w.kv("traced_pairs", static_cast<std::int64_t>(traced.size()));
  w.end_object();
  w.finish();
  res.detail = finish_line(out);
  return res;
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  LCS_CHECK(cfg.workload != nullptr, "no workload");
  if (cfg.trace) return traced_run(cfg);
  return cfg.workload->serve ? serve_run(cfg) : engine_run(cfg);
}

std::string result_line(const RunResult& r) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.kv("correct", r.failed == 0);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : r.metrics) {
    w.key(m.name).begin_object();
    w.kv("value", m.value).kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.finish();
  return finish_line(out);
}

}  // namespace lcs::bench
