#include "engine_op.h"

#include <iostream>
#include <memory>
#include <sstream>

#include "driver/run_driver.h"
#include "graph/reference.h"
#include "json_util.h"
#include "proc.h"
#include "scenario/scenario.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace lcs::bench {

namespace {

constexpr double kOpTimeoutS = 120.0;

/// setup rounds/messages plus the integer members of `result`.
std::map<std::string, std::int64_t> report_counts(const JsonValue& report) {
  std::map<std::string, std::int64_t> counts;
  const JsonValue& setup = member(report, "setup");
  counts["setup_rounds"] = member(setup, "rounds").as_int("setup.rounds");
  counts["setup_messages"] = member(setup, "messages").as_int("setup.messages");
  for (const auto& [key, value] : member(report, "result").as_object("result"))
    if (is_integer(value)) counts[key] = value.as_int(key);
  return counts;
}

void write_counts(JsonWriter& w, const char* key,
                  const std::map<std::string, std::int64_t>& counts) {
  w.key(key).begin_object();
  for (const auto& [k, v] : counts) w.kv(k, v);
  w.end_object();
}

std::map<std::string, std::int64_t> read_counts(const JsonValue& v) {
  std::map<std::string, std::int64_t> counts;
  for (const auto& [key, value] : v.as_object("counts"))
    counts[key] = value.as_int(key);
  return counts;
}

/// The timed op; returns the first failed check, or "".
std::string timed_op(const Instance& inst, bool validate, JsonWriter& w) {
  // Set-up is timed in here, so process start-up and the loader stay out.
  const double setup_start = now_s();
  const auto sc = std::make_shared<const scenario::Scenario>(
      scenario::make_scenario(inst.spec));
  w.kv("setup_s", now_s() - setup_start);

  driver::RunOptions o;
  o.algo = inst.algo;
  o.scenario = inst.spec;
  o.threads = inst.threads;
  o.seed = inst.seed;
  o.validate = false;
  o.timing = false;
  driver::RunHooks hooks;
  hooks.resolve_scenario = [&sc](const std::string&) { return sc; };

  std::string doc;
  const double t0 = now_s();
  const int rc = driver::run_document(o, hooks, doc);
  const double t1 = now_s();
  w.kv("run_s", t1 - t0);
  w.kv("payload_hash", fnv1a64(doc));

  const auto counts = report_counts(parse_json(doc));
  write_counts(w, "result", counts);
  if (rc != 0) return "run_document returned " + std::to_string(rc);

  if (inst.algo == "mst") {
    const MstResult truth = kruskal_mst(sc->graph);
    if (counts.at("weight") != static_cast<std::int64_t>(truth.total_weight) ||
        counts.at("mst_edges") != static_cast<std::int64_t>(truth.edges.size()))
      return "MST weight or size differs from kruskal_mst";
  }
  if (validate) {
    o.validate = true;
    o.threads = 1;
    std::string checked;
    if (driver::run_document(o, hooks, checked) != 0)
      return "validate=true run failed its oracle";
    const JsonValue report = parse_json(checked);
    if (!member(member(report, "validation"), "ok").as_bool("validation.ok"))
      return "validation.ok is false";
    if (report_counts(report) != counts)
      return "counts differ between threads=" + std::to_string(inst.threads) +
             " and the validate=true run at threads=1";
  }
  return "";
}

std::string traced_op(const Instance& inst, JsonWriter& w) {
  Tracer t;
  const scenario::Scenario sc = t.span("scenario.resolve", nullptr, [&] {
    return scenario::make_scenario(inst.spec);
  });
  const ReplicaRun rep = run_replica(t, sc, inst);

  write_counts(w, "result", rep.result);
  write_counts(w, "find",
               {{"calls", rep.find.calls},
                {"trials", rep.find.trials},
                {"successful_trials", rep.find.successful_trials},
                {"iterations", rep.find.iterations},
                {"part_iterations", rep.find.part_iterations},
                {"parts_retired", rep.find.parts_retired}});
  w.key("spans").begin_array();
  for (const Span& s : t.spans()) {
    w.begin_array();
    w.value(s.name).value(std::int64_t{s.parent}).value(s.start).value(s.end);
    w.value(s.rounds).value(s.messages);
    w.end_array();
  }
  w.end_array();
  return rep.oracle_ok ? "" : rep.why;
}

}  // namespace

int child_main(const Args& args) {
  args.check_known({"child", "algo", "spec", "threads", "seed", "validate"});
  Instance inst;
  inst.algo = args.get("algo", "");
  inst.spec = args.get("spec", "");
  inst.threads = static_cast<int>(args.get_int("threads", 1));
  inst.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string mode = args.get("child", "");
  LCS_CHECK(mode == "timed" || mode == "traced",
            "--child expects timed or traced");

  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  const std::string why = mode == "traced"
                              ? traced_op(inst, w)
                              : timed_op(inst, args.has("validate"), w);
  w.kv("why", why);
  w.end_object();
  w.finish();
  std::cout << out.str() << std::flush;
  return 0;
}

EngineOp run_engine_op(const Instance& inst, bool traced, bool validate) {
  std::vector<std::string> argv = {
      self_exe(), "--child",   traced ? "traced" : "timed",
      "--algo",   inst.algo,   "--spec",
      inst.spec,  "--threads", std::to_string(inst.threads),
      "--seed",   std::to_string(inst.seed)};
  if (validate) argv.emplace_back("--validate");

  EngineOp op;
  Child child(argv, /*capture=*/true);
  std::string out;
  const bool complete = child.read_all(out, kOpTimeoutS);
  const Child::Exit exit = child.wait(complete ? kOpTimeoutS : 0.0);
  op.peak_rss_mb = exit.peak_rss_mb;
  if (!complete || exit.code != 0) {
    op.why = inst.algo + " on " + inst.spec + ": child " +
             (complete ? "exited with " + std::to_string(exit.code)
                       : std::string("timed out"));
    return op;
  }
  try {
    const JsonValue v = parse_json(out);
    op.result = read_counts(member(v, "result"));
    if (traced) {
      const auto find = read_counts(member(v, "find"));
      op.find = {find.at("calls"),      find.at("trials"),
                 find.at("successful_trials"), find.at("iterations"),
                 find.at("part_iterations"), find.at("parts_retired")};
      for (const JsonValue& s : member(v, "spans").as_array("spans")) {
        const auto& f = s.as_array("span");
        LCS_CHECK(f.size() == 6, "a span has six fields");
        op.spans.push_back({f[0].as_string("name"),
                            static_cast<int>(f[1].as_int("parent")),
                            f[2].as_double("start"), f[3].as_double("end"),
                            f[4].as_int("rounds"), f[5].as_int("messages")});
      }
      for (const Span& s : op.spans)
        if (s.parent < 0 && s.name != "scenario.resolve")
          op.run_s += s.end - s.start;
    } else {
      op.setup_s = member(v, "setup_s").as_double("setup_s");
      op.run_s = member(v, "run_s").as_double("run_s");
      op.payload_hash = member(v, "payload_hash").as_uint("payload_hash");
    }
    op.why = member(v, "why").as_string("why");
  } catch (const std::exception& e) {
    op.why = std::string("malformed child output: ") + e.what();
    return op;
  }
  op.ok = op.why.empty();
  if (!op.ok) op.why = inst.algo + " on " + inst.spec + ": " + op.why;
  return op;
}

}  // namespace lcs::bench
