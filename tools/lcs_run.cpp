/// \file lcs_run.cpp
/// End-to-end driver: run any registered algorithm on any scenario spec and
/// emit a machine-readable JSON report.
///
///     lcs_run --algo=mst --scenario="grid:w=64,h=64,weights=1-100000"
///             --seed=7 --validate
///
/// Algorithms: components | mst | mincut | aggregate | shortcut, `churn`
/// (drive the scenario through a verified dynamic edge-churn stream, see
/// src/dynamic/), or `none` to stop after scenario resolution (generator
/// studies, generation smoke).
/// The report carries the scenario parameters, graph metrics, exact round/
/// message accounting (setup vs algorithm), oracle-validation results, and
/// wall time. Rounds and messages are exact: the engine simulates or
/// counts every step, never estimates one.
///
/// Determinism: everything except the `timing` object is a pure function of
/// (--scenario, --algo, --seed, --fail-rate, --validate, --metrics,
/// --sweep); `--threads` is accepted and selects nothing. `--no-timing`
/// omits the `timing` object so two reports can be diffed byte-for-byte;
/// the golden CI gate runs the scenario x algorithm matrix exactly that way.
///
/// Scaling curves come from one invocation: `--sweep key=lo..hi[:steps|xN]`
/// re-resolves the scenario spec once per point with `key` overridden and
/// emits a single JSON array of per-point reports:
///
///     lcs_run --algo=components --scenario="er:n=1000,deg=6"
///             --sweep="n=1k..1M:x10" --no-timing
///
/// This tool is flag parsing around the shared report core in
/// src/driver/run_driver.h; the persistent daemon (`lcs_serve`) calls the
/// same core, which is what makes served responses byte-identical to these
/// one-shot reports.
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "driver/run_driver.h"
#include "scenario/scenario.h"
#include "shortcut/backend/backend.h"
#include "util/check.h"

namespace {

using namespace lcs;

struct Options {
  driver::RunOptions run;
  std::string out_path;  // empty = stdout
  bool list = false;
  bool list_backends = false;
};

constexpr const char* kUsage = R"(usage: lcs_run --algo=ALGO --scenario=SPEC [options]

  --algo=ALGO        components | mst | mincut | aggregate | shortcut | churn,
                     or none (resolve the scenario, skip the engine)
  --scenario=SPEC    scenario spec, e.g. "grid:w=64,h=64" or "file:road.bin"
                     (run --list for the full family vocabulary); --algo=churn
                     also accepts the "churn:base=SPEC;params" wrapper
  --backend=NAME     shortcut construction for --algo=shortcut (default
                     hiz16, the paper's pipeline; run --list-backends for
                     the registered constructions and their applicability)
  --churn=PARAMS     churn stream parameters for --algo=churn with a plain
                     base --scenario, e.g. "steps=1000,rate=0.02,seed=7"
                     (see src/dynamic/churn.h for the vocabulary)
  --sweep=RANGE      key=lo..hi[:steps|xfactor] — run once per point with
                     the scenario's `key` parameter overridden, emitting one
                     JSON array of reports. lo/hi take k/M/G suffixes;
                     ":5" = 5 evenly spaced points, ":x10" = multiply by 10
                     per point (the default is :x2)
  --threads=N        accepted for compatibility (N >= 0); selects nothing,
                     the engine is sequential
  --seed=S           algorithm seed (default 1)
  --fail-rate=F      components: failed-edge fraction in [0, 1) (default 0.25)
  --validate         CONGEST checks on + verify the result against the
                     centralized oracle (nonzero exit on mismatch)
  --metrics          include expensive graph metrics in the report
  --no-timing        omit the timing object (byte-stable golden output)
  --save-graph=PATH  also save the scenario's graph as a binary cache
  --out=PATH         write the JSON report to PATH instead of stdout
  --list             list registered scenario families and exit
  --list-backends    list registered shortcut backends and exit
)";

bool take_value(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = arg + len + 1;
  return true;
}

/// A usage error is a user-input failure like any other: a JSON error
/// document on stdout, its message echoed on stderr (with `usage` after
/// it, if given), exit code 2.
[[noreturn]] void usage_error(const std::string& message,
                              const char* usage = "") {
  std::cout << driver::error_document("usage", message, 2);
  std::cerr << "lcs_run: " << message << "\n" << usage;
  std::exit(2);
}

/// Strict numeric flag parsing: the whole value must parse (a typo like
/// --threads=4x is a usage error, not 4).
template <class T>
T parse_flag(const std::string& value, const char* flag) {
  T out{};
  const auto res =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (res.ec != std::errc() || res.ptr != value.data() + value.size())
    usage_error("bad value '" + value + "' for " + flag);
  return out;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string v;
    if (take_value(arg, "--algo", o.run.algo)) continue;
    if (take_value(arg, "--scenario", o.run.scenario)) continue;
    if (take_value(arg, "--backend", o.run.backend)) continue;
    if (take_value(arg, "--churn", o.run.churn)) continue;
    if (take_value(arg, "--sweep", o.run.sweep)) continue;
    if (take_value(arg, "--out", o.out_path)) continue;
    if (take_value(arg, "--save-graph", o.run.save_graph_path)) continue;
    if (take_value(arg, "--threads", v)) {
      o.run.threads = parse_flag<int>(v, "--threads");
      continue;
    }
    if (take_value(arg, "--seed", v)) {
      o.run.seed = parse_flag<std::uint64_t>(v, "--seed");
      continue;
    }
    if (take_value(arg, "--fail-rate", v)) {
      o.run.fail_rate = parse_flag<double>(v, "--fail-rate");
      continue;
    }
    if (std::strcmp(arg, "--validate") == 0) { o.run.validate = true; continue; }
    if (std::strcmp(arg, "--metrics") == 0) { o.run.metrics = true; continue; }
    if (std::strcmp(arg, "--no-timing") == 0) { o.run.timing = false; continue; }
    if (std::strcmp(arg, "--list") == 0) { o.list = true; continue; }
    if (std::strcmp(arg, "--list-backends") == 0) {
      o.list_backends = true;
      continue;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::cout << kUsage;
      std::exit(0);
    }
    usage_error("unknown argument '" + std::string(arg) + "'", kUsage);
  }
  return o;
}

void list_families() {
  std::cout << "registered scenario families (spec = family:key=value,...):\n";
  for (const auto& f : scenario::families()) {
    std::cout << "  " << f.name << ":" << f.params_help << "\n      "
              << f.summary << "\n";
  }
  std::cout << "common params: parts=<k>, pseed=<s> (random BFS partition "
               "override);\n               weights=<lo>-<hi>, wseed=<s> "
               "(uniform re-weighting)\n";
}

void list_backends() {
  std::cout << "registered shortcut backends (--backend=NAME, default "
            << backend::kDefaultBackend << "):\n";
  for (const auto& b : backend::backends()) {
    std::cout << "  " << b.name << "\n      paper: " << b.paper << "\n      "
              << b.summary << "\n";
  }
}

int run(const Options& o) {
  std::string report;
  const int rc = driver::run_document(o.run, driver::RunHooks{}, report);

  if (o.out_path.empty()) {
    std::cout << report;
  } else {
    // The document is complete before the file is touched: a failing run
    // can never truncate a pre-existing --out report.
    std::ofstream file_out(o.out_path, std::ios::trunc);
    LCS_CHECK(file_out.is_open(),
              "cannot open '" + o.out_path + "' for writing");
    file_out << report;
  }
  return rc;
}

/// Graceful CLI degradation: any CheckFailure or exception escaping `run`
/// (malformed spec, unknown algo, bad sweep range, unreadable file, a failed
/// churn verification...) becomes a deterministic JSON error object on
/// stdout — tooling that drives lcs_run always reads well-formed JSON — plus
/// a human-readable echo on stderr and a nonzero exit.
int report_error(const char* type, const std::exception& e, int rc) {
  std::cout << driver::error_document(type, e.what(), rc);
  std::cerr << "lcs_run: " << e.what() << "\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  if (o.list) {
    list_families();
    return 0;
  }
  if (o.list_backends) {
    list_backends();
    return 0;
  }
  try {
    return run(o);
  } catch (const CheckFailure& e) {
    return report_error("check_failure", e, 2);
  } catch (const std::exception& e) {
    return report_error("exception", e, 3);
  }
}
