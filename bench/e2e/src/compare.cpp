#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_util.h"
#include "proc.h"
#include "stats.h"
#include "util/check.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace lcs::bench {

namespace {

struct MetricSpec {
  std::string name;
  bool lower_better = true;
  /// BENCHMARK.json's bound, except 0 for a `count` metric: the simulated
  /// totals are exact at one seed, and BENCHMARK.json's bound only absorbs
  /// how they vary from seed to seed.
  double bound = 0.0;
};

struct Sample {
  std::map<std::string, double> metrics;
  std::int64_t failed = 0;
};

Sample run_side(const std::string& bin_dir, const std::string& workload,
                const std::string& seed, const std::string& seconds) {
  const std::vector<std::string> argv = {
      bin_dir + "/lcs_bench", "--workload", workload, "--seed", seed,
      "--seconds", seconds, "--trace", "0"};
  Child::Exit exit;
  const std::string out = run_capture(argv, 900.0, exit);
  LCS_CHECK(exit.code == 0, argv[0] + " --workload " + workload +
                                " exited with " + std::to_string(exit.code));
  std::string last = out;
  while (!last.empty() && last.back() == '\n') last.pop_back();
  last = last.substr(last.rfind('\n') + 1);  // npos + 1 == 0
  const JsonValue result = parse_json(last);
  Sample s;
  s.failed = member(result, "failed").as_int("failed");
  for (const auto& [name, m] : member(result, "metrics").as_object("metrics"))
    s.metrics[name] = member(m, "value").as_double(name);
  return s;
}

/// Section 8 of the choosing-metrics method: a gain needs >= 9/10 of the
/// pairs won (ties count for neither), a median gap wider than the base's
/// own quartile spread, and no more failures than the base. Otherwise the
/// head is ok within `bound`, regressed beyond it, or unresolved when the
/// base's own spread is wider than the bound (unless every head run beats
/// every base run).
std::string verdict(const std::vector<double>& base,
                    const std::vector<double>& head, const MetricSpec& m,
                    std::int64_t base_failed, std::int64_t head_failed,
                    int& wins) {
  const auto better = [&](double h, double b) {
    return m.lower_better ? h < b : h > b;
  };
  wins = 0;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (better(head[i], base[i])) ++wins;
  const double mb = median(base);
  const double mh = median(head);
  const auto q = quartiles(base);
  const double iqr = q[2] - q[0];
  const auto n = static_cast<int>(base.size());
  if (better(mh, mb) && wins * 10 >= 9 * n && std::fabs(mh - mb) > iqr &&
      head_failed <= base_failed)
    return "gain";
  const double scale = mb == 0.0 ? 1.0 : std::fabs(mb);
  const double worse = (m.lower_better ? mh - mb : mb - mh) / scale;
  const double worst_head = m.lower_better
                                ? *std::max_element(head.begin(), head.end())
                                : *std::min_element(head.begin(), head.end());
  const double best_base = m.lower_better
                               ? *std::min_element(base.begin(), base.end())
                               : *std::max_element(base.begin(), base.end());
  const bool all_better = better(worst_head, best_base);
  if (iqr / scale > m.bound && !all_better) return "unresolved";
  if (worse > m.bound) return "regressed";
  return "ok";
}

}  // namespace

int compare_main(const Args& args) {
  args.check_known({"base", "head", "pairs", "seed"});
  LCS_CHECK(args.has("base") && args.has("head"),
            "compare needs --base=BIN_DIR and --head=BIN_DIR");
  std::ifstream file("BENCHMARK.json");
  LCS_CHECK(file.good(),
            "cannot read BENCHMARK.json (run compare from the repository root)");
  std::stringstream text;
  text << file.rdbuf();
  const JsonValue spec = parse_json(text.str());

  std::vector<MetricSpec> metrics;
  for (const JsonValue& m : member(spec, "end_to_end").as_array("end_to_end"))
    metrics.push_back({member(m, "name").as_string("name"),
                       member(m, "better").as_string("better") == "lower",
                       member(m, "unit").as_string("unit") == "count"
                           ? 0.0
                           : member(m, "bound").as_double("bound")});
  std::vector<std::string> workloads;
  for (const JsonValue& w : member(spec, "workloads").as_array("workloads"))
    workloads.push_back(member(w, "name").as_string("name"));
  const auto pairs = args.get_int("pairs", 10);
  LCS_CHECK(pairs >= 1, "--pairs must be at least 1");
  const std::string seed = std::to_string(args.get_int("seed", 1));
  const std::string seconds =
      std::to_string(member(spec, "run_seconds").as_int("run_seconds"));
  const std::string sides[2] = {args.get("base", ""), args.get("head", "")};

  // runs[side][workload] in pair order.
  std::map<std::string, std::vector<Sample>> runs[2];
  for (std::int64_t p = 0; p < pairs; ++p) {
    for (const std::string& wl : workloads) {
      const int first = static_cast<int>(p % 2);  // alternate who runs first
      for (const int side : {first, 1 - first}) {
        std::cerr << "compare: pair " << p + 1 << "/" << pairs << " " << wl
                  << " " << (side == 0 ? "base" : "head") << "\n";
        runs[side][wl].push_back(run_side(sides[side], wl, seed, seconds));
      }
    }
  }

  std::int64_t counts[4] = {0, 0, 0, 0};  // gain, ok, regressed, unresolved
  std::ostringstream summary;
  JsonWriter w(summary, 0);
  w.begin_object();
  w.key("rows").begin_array();
  std::printf("%-14s %-14s %34s %34s %7s  %s\n", "workload", "metric",
              "base p50 [q1, q3]", "head p50 [q1, q3]", "wins", "verdict");
  for (const std::string& wl : workloads) {
    std::int64_t failed[2] = {0, 0};
    for (int side = 0; side < 2; ++side)
      for (const Sample& s : runs[side][wl]) failed[side] += s.failed;
    for (const MetricSpec& m : metrics) {
      std::vector<double> values[2];
      for (int side = 0; side < 2; ++side)
        for (const Sample& s : runs[side][wl]) values[side].push_back(s.metrics.at(m.name));
      int wins = 0;
      const std::string v =
          verdict(values[0], values[1], m, failed[0], failed[1], wins);
      const char* labels[4] = {"gain", "ok", "regressed", "unresolved"};
      for (int i = 0; i < 4; ++i)
        if (v == labels[i]) ++counts[i];
      const auto qb = quartiles(values[0]);
      const auto qh = quartiles(values[1]);
      std::printf("%-14s %-14s %12.6g [%9.6g, %9.6g] %12.6g [%9.6g, %9.6g] %3d/%-3lld  %s\n",
                  wl.c_str(), m.name.c_str(), median(values[0]), qb[0], qb[2],
                  median(values[1]), qh[0], qh[2], wins,
                  static_cast<long long>(pairs), v.c_str());
      w.begin_object();
      w.kv("workload", wl).kv("metric", m.name);
      w.kv("base_p50", median(values[0])).kv("head_p50", median(values[1]));
      w.kv("base_iqr", qb[2] - qb[0]).kv("wins", static_cast<std::int64_t>(wins));
      w.kv("verdict", v);
      w.end_object();
    }
  }
  w.end_array();
  w.kv("pairs", pairs).kv("gains", counts[0]).kv("ok", counts[1]);
  w.kv("regressed", counts[2]).kv("unresolved", counts[3]);
  w.end_object();
  w.finish();
  std::fflush(stdout);
  std::cout << summary.str() << std::flush;
  return counts[2] == 0 ? 0 : 1;
}

}  // namespace lcs::bench
