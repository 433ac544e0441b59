#include "trace.h"

#include <chrono>
#include <cmath>
#include <iostream>

namespace lcs::bench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, const congest::Network* net) {
  Span s;
  s.name = name;
  s.parent = open_;
  if (net != nullptr) {
    s.rounds = net->total_rounds();
    s.messages = net->total_messages();
  }
  s.start = now_s();
  spans_.push_back(std::move(s));
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::close(int id, const congest::Network* net) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_s();
  if (net != nullptr) {
    s.rounds = net->total_rounds() - s.rounds;
    s.messages = net->total_messages() - s.messages;
  }
  open_ = s.parent;
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;

  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanTotals& t = totals[s.name];
    ++t.calls;
    t.total_s += s.end - s.start;
    t.self_s += s.end - s.start - child_s[i];
    t.rounds += s.rounds;
    t.messages += s.messages;
  }
  return totals;
}

int trace_selftest() {
  // op [0, 10] holds a [1, 4] and b [5, 9]; b holds a second `a` [6, 7].
  // Self times: op 10 - 3 - 4 = 3, a 3 + 1 = 4, b 4 - 1 = 3.
  const std::vector<Span> spans = {
      {"op", -1, 0.0, 10.0, 9, 90},
      {"a", 0, 1.0, 4.0, 3, 30},
      {"b", 0, 5.0, 9.0, 5, 50},
      {"a", 2, 6.0, 7.0, 1, 10},
  };
  const auto totals = span_totals(spans);
  struct Want {
    const char* name;
    std::int64_t calls;
    double total_s, self_s;
    std::int64_t rounds, messages;
  };
  const Want wants[] = {
      {"op", 1, 10.0, 3.0, 9, 90},
      {"a", 2, 4.0, 4.0, 4, 40},
      {"b", 1, 4.0, 3.0, 5, 50},
  };
  int failures = totals.size() == 3 ? 0 : 1;
  for (const Want& w : wants) {
    const auto it = totals.find(w.name);
    const bool ok = it != totals.end() && it->second.calls == w.calls &&
                    std::fabs(it->second.total_s - w.total_s) < 1e-12 &&
                    std::fabs(it->second.self_s - w.self_s) < 1e-12 &&
                    it->second.rounds == w.rounds &&
                    it->second.messages == w.messages;
    if (!ok) {
      std::cerr << "selftest: span totals wrong for '" << w.name << "'\n";
      ++failures;
    }
  }

  // A live tracer must nest spans and restore the parent on exit.
  Tracer t;
  t.span("outer", nullptr, [&] {
    t.span("inner", nullptr, [] {});
    t.span("inner", nullptr, [] {});
  });
  t.span("next", nullptr, [] {});
  const auto& s = t.spans();
  if (s.size() != 4 || s[0].parent != -1 || s[1].parent != 0 ||
      s[2].parent != 0 || s[3].parent != -1 || s[0].end < s[2].end) {
    std::cerr << "selftest: tracer nesting wrong\n";
    ++failures;
  }
  std::cerr << (failures == 0 ? "selftest: ok\n" : "selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace lcs::bench
