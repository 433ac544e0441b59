#include "workloads.h"

#include <sstream>

#include "util/json_writer.h"
#include "util/random.h"

namespace lcs::bench {

// Sizes keep one engine run near 0.2-0.75 s on a 4-core Xeon, so a 20 s
// run times dozens of distinct inputs: per-input round counts vary by
// 10-17% (Boruvka phase counts differ), and only many inputs per run keep
// the run-to-run spread of the medians small.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"mst-er", false, "mst", 1, 56},
      {"mst-grid", false, "mst", 1, 64},
      {"aggregate-er", false, "aggregate", 2, 20},
      {"serve-mix", true, "", 1, 0},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Instance engine_instance(const Workload& w, std::uint64_t seed, int i,
                         bool smoke) {
  const std::string xs =
      std::to_string(seed * 1000 + static_cast<std::uint64_t>(i));
  Instance inst;
  inst.algo = w.algo;
  inst.threads = w.threads;
  inst.seed = seed;
  if (w.name == "mst-er") {
    inst.spec = std::string("er:n=") + (smoke ? "60" : "250") +
                ",deg=6,seed=" + xs + ",weights=1-1000,wseed=" + xs;
  } else if (w.name == "mst-grid") {
    inst.spec = std::string("grid:w=") + (smoke ? "6" : "16") +
                ",weights=1-1000,wseed=" + xs;
  } else {
    inst.spec = std::string("er:n=") + (smoke ? "150" : "800") +
                ",deg=8,seed=" + xs;
  }
  return inst;
}

std::string ServeKey::request(std::string_view id) const {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.kv("id", id);
  w.kv("algo", run.algo);
  w.kv("scenario", run.spec);
  if (!backend.empty()) w.kv("backend", backend);
  if (!churn.empty()) w.kv("churn", churn);
  w.kv("seed", run.seed);
  w.kv("threads", run.threads);
  w.kv("validate", validate);
  w.kv("timing", timing);
  w.end_object();
  w.finish();
  std::string line = out.str();
  line.pop_back();  // finish() ends the document with a newline
  return line;
}

std::vector<std::string> serve_scenarios(bool smoke) {
  if (smoke)
    return {"grid:w=6,weights=1-1000",         "maze:w=6,keep=0.3,weights=1-1000",
            "torus:w=5,weights=1-1000",        "genus:w=6,g=2,weights=1-1000",
            "er:n=40,deg=6,weights=1-1000",    "ba:n=40,m=3,weights=1-1000",
            "rreg:n=40,d=4,weights=1-1000",    "ktree:n=40,k=3,weights=1-1000"};
  return {"grid:w=14,weights=1-1000",       "maze:w=14,keep=0.3,weights=1-1000",
          "torus:w=12,weights=1-1000",      "genus:w=14,g=4,weights=1-1000",
          "er:n=200,deg=6,weights=1-1000",  "ba:n=200,m=3,weights=1-1000",
          "rreg:n=200,d=4,weights=1-1000",  "ktree:n=300,k=3,weights=1-1000"};
}

std::vector<ServeKey> serve_keys(std::uint64_t seed, bool smoke) {
  // The mix: shortcut 40% (hiz16 / naive / kkoi19), aggregate 15%, mst 15%,
  // components 10%, mincut 10%, churn 5%, none 5% of 40 keys.
  struct Share {
    const char* algo;
    const char* backend;
    int count;
  };
  static constexpr Share kShares[] = {
      {"shortcut", "hiz16", 8}, {"shortcut", "naive", 6},
      {"shortcut", "kkoi19", 2}, {"aggregate", "", 6},
      {"mst", "", 6},            {"components", "", 4},
      {"mincut", "", 4},         {"churn", "", 2},
      {"none", "", 2},
  };
  const std::vector<std::string> scenarios = serve_scenarios(smoke);
  const std::size_t ktree = scenarios.size() - 1;  // kkoi19 needs a k-tree

  std::vector<ServeKey> keys;
  for (const Share& share : kShares) {
    for (int j = 0; j < share.count; ++j) {
      const std::uint64_t k = keys.size();
      ServeKey key;
      key.run.algo = share.algo;
      key.backend = share.backend;
      key.run.spec = scenarios[key.backend == "kkoi19"
                                   ? ktree
                                   : static_cast<std::size_t>(j) % scenarios.size()];
      key.run.seed = 1 + hash64(seed, k) % 3;
      if (key.run.algo == "churn")
        key.churn = "steps=200,verify=sample,seed=" + std::to_string(seed);
      key.timing = k % 2 == 1;
      key.validate = k % 4 == 0;
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

std::vector<std::size_t> serve_pass(std::uint64_t seed, std::size_t keys) {
  std::vector<std::size_t> order;
  for (std::uint64_t sweep = 1; sweep <= 2; ++sweep) {
    std::vector<std::size_t> s(keys);
    for (std::size_t i = 0; i < keys; ++i) s[i] = i;
    Rng rng(hash64(seed, sweep));
    for (std::size_t i = keys; i > 1; --i)
      std::swap(s[i - 1], s[rng.next_below(i)]);
    order.insert(order.end(), s.begin(), s.end());
  }
  return order;
}

}  // namespace lcs::bench
