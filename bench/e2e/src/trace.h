/// \file trace.h
/// Nested spans recorded from outside the library: the benchmark wraps each
/// call into a layer's public functions, so the program itself carries no
/// tracing code. Spans stay in memory and are written out when a run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "congest/network.h"

namespace lcs::bench {

/// Monotonic seconds (CLOCK_MONOTONIC underneath), so timestamps taken in
/// two processes on one host compare directly.
double now_s();

struct Span {
  std::string name;
  int parent = -1;  ///< index into the span list; -1 = top level
  double start = 0.0;
  double end = 0.0;
  /// Engine counters over the span, children included (0 without a network).
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
};

/// Totals of every span sharing one name.
struct SpanTotals {
  std::int64_t calls = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< durations minus the time their child spans cover
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
};

/// Per-name totals. Spans of one thread never overlap their siblings, so a
/// span's self time is its duration minus the sum of its children's.
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

class Tracer {
 public:
  /// Runs `f` inside a span named `name`, a child of the innermost open
  /// span. `net` (may be null) supplies the round and message deltas.
  template <class F>
  decltype(auto) span(const char* name, const congest::Network* net, F&& f) {
    const int id = open(name, net);
    const Closer closer{*this, id, net};
    return f();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Closer {
    Tracer& tracer;
    int id;
    const congest::Network* net;
    ~Closer() { tracer.close(id, net); }
  };

  int open(const char* name, const congest::Network* net);
  void close(int id, const congest::Network* net);

  std::vector<Span> spans_;
  int open_ = -1;
};

/// Checks span_totals on a fixed synthetic span tree; returns 0 on success.
int trace_selftest();

}  // namespace lcs::bench
