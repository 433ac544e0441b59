/// \file superstep_reference_test.cpp
/// The superstep runner and the representation broadcast against engine
/// references: a `SuperstepRunner` superstep makes every hook call on the
/// host and adds its rounds and messages with `add_replayed`, and must
/// leave the same state, counts and hook calls as the same superstep run
/// as engine phases (the exchange plus the reference convergecast and
/// broadcast of engine_reference.h). The `add_replayed` guards live here
/// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "engine_reference.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/existential.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_routing.h"
#include "test_util.h"
#include "tree/spanning_tree.h"
#include "util/check.h"

namespace lcs {
namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;
using congest::Network;
using congest::PhaseStats;
using congest::Process;

// ---------------------------------------------------------------------------
// Superstep runner against the engine: a SuperstepRunner makes every hook
// call on the host and runs no engine phase. Against an engine-only
// superstep (the exchange and the reference convergecast and broadcast of
// engine_reference.h, each an engine phase), every superstep, the first
// included, must leave the same per-node state, add the same rounds and
// messages, and make the same hook calls.

/// Per-node protocol state and hook-call logs of one side of the
/// comparison. Hooks for node v write only index v.
struct SuperstepWorld {
  /// One hook call: {kind, and up to three arguments}.
  using Call = std::array<std::uint64_t, 4>;
  enum Kind : std::uint64_t { kContribution, kCrossMessage, kOnCross };

  std::vector<std::uint64_t> value;
  std::vector<std::uint64_t> aux;
  /// Per node, in call order: contribution, cross_message and on_cross.
  /// The engine and the runner call these in the same order at a node.
  std::vector<std::vector<Call>> calls;
  /// Per node: on_aggregate as {part, aggregate}. A node's calls for
  /// different parts may come in any order, so these compare sorted.
  std::vector<std::vector<Call>> aggregates;
  std::int64_t combines = 0;

  explicit SuperstepWorld(NodeId n)
      : value(static_cast<std::size_t>(n)),
        aux(static_cast<std::size_t>(n), 0),
        calls(static_cast<std::size_t>(n)),
        aggregates(static_cast<std::size_t>(n)) {
    for (std::size_t v = 0; v < value.size(); ++v)
      value[v] = (v * 2654435761u) % 1009;
  }

  void log(Kind kind, NodeId v, std::uint64_t a, std::uint64_t b,
           std::uint64_t c) {
    calls[static_cast<std::size_t>(v)].push_back(Call{kind, a, b, c});
  }
  void log_aggregate(NodeId v, std::uint64_t j, std::uint64_t agg) {
    aggregates[static_cast<std::size_t>(v)].push_back(Call{0, j, agg, 0});
  }

  /// This superstep's logs (aggregates sorted per node); clears them.
  std::pair<std::vector<std::vector<Call>>, std::vector<std::vector<Call>>>
  take_calls() {
    for (auto& list : aggregates) std::sort(list.begin(), list.end());
    std::pair result{calls, aggregates};
    for (auto& list : calls) list.clear();
    for (auto& list : aggregates) list.clear();
    return result;
  }
};

enum class HookSet { kMinFlood, kSaturatingSum, kMaxVerdict, kNoExchange };

/// The six superstep hooks as std::function members; `cross_message` and
/// `on_cross` are null for a superstep without the exchange.
struct LoggedHooks {
  std::function<std::uint64_t(NodeId, PartId)> contribution;
  std::function<std::uint64_t(std::uint64_t, std::uint64_t)> combine;
  std::uint64_t identity = 0;
  std::function<void(NodeId, PartId, std::uint64_t)> on_aggregate;
  std::function<std::optional<std::uint64_t>(NodeId, NodeId, EdgeId)>
      cross_message;
  std::function<void(NodeId, NodeId, EdgeId, std::uint64_t)> on_cross;
};

/// Hooks over `w` whose per-node updates commute across parts (the
/// superstep contract); every call except `combine` is logged, and
/// `combine` is counted.
LoggedHooks make_logged_hooks(HookSet set, SuperstepWorld& w,
                              const Partition& p) {
  static constexpr std::uint64_t kMax = ~std::uint64_t{0};
  static constexpr std::uint64_t kCap = std::uint64_t{1} << 62;
  const auto u = [](NodeId v) { return static_cast<std::size_t>(v); };
  const auto uj = [](PartId j) { return static_cast<std::uint64_t>(j); };
  const auto un = [](NodeId v) { return static_cast<std::uint64_t>(v); };
  LoggedHooks h;
  std::function<std::uint64_t(NodeId, PartId)> contribution;
  std::function<std::uint64_t(std::uint64_t, std::uint64_t)> combine;
  std::function<void(NodeId, PartId, std::uint64_t)> on_aggregate;
  std::function<std::optional<std::uint64_t>(NodeId, NodeId, EdgeId)> cross;
  std::function<void(NodeId, NodeId, EdgeId, std::uint64_t)> on_cross;
  switch (set) {
    case HookSet::kMinFlood:
      h.identity = kMax;
      combine = [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); };
      contribution = [&w, &p, u](NodeId v, PartId j) {
        return p.part(v) == j ? w.value[u(v)] : kMax;
      };
      on_aggregate = [&w, &p, u](NodeId v, PartId j, std::uint64_t agg) {
        if (p.part(v) == j) w.value[u(v)] = std::min(w.value[u(v)], agg);
      };
      cross = [&w, u](NodeId v, NodeId, EdgeId) {
        return std::optional<std::uint64_t>(w.value[u(v)]);
      };
      on_cross = [&w, u](NodeId v, NodeId, EdgeId, std::uint64_t x) {
        w.value[u(v)] = std::min(w.value[u(v)], x);
      };
      break;
    case HookSet::kSaturatingSum:
      // Relays contribute too, and a third of the cross edges stay silent.
      h.identity = 0;
      combine = [](std::uint64_t a, std::uint64_t b) {
        return std::min(a + b, kCap);
      };
      contribution = [&w, &p, u, uj, un](NodeId v, PartId j) {
        const std::uint64_t own = p.part(v) == j ? w.value[u(v)] % 97 : 0;
        return own + 1 + (un(v) * 7 + uj(j)) % 5;
      };
      on_aggregate = [&w, u, uj](NodeId v, PartId j, std::uint64_t agg) {
        w.aux[u(v)] += agg * (uj(j) + 1);
      };
      cross = [&w, u, un](NodeId v, NodeId to,
                          EdgeId e) -> std::optional<std::uint64_t> {
        if ((un(v) + un(to) + static_cast<std::uint64_t>(e)) % 3 == 0)
          return std::nullopt;
        return w.value[u(v)] % 1000 + un(to);
      };
      on_cross = [&w, u, un](NodeId v, NodeId from, EdgeId, std::uint64_t x) {
        w.value[u(v)] += x ^ un(from);
      };
      break;
    case HookSet::kMaxVerdict:
      h.identity = 0;
      combine = [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); };
      contribution = [&w, &p, u](NodeId v, PartId j) -> std::uint64_t {
        return p.part(v) == j ? w.value[u(v)] % 3 : 0;
      };
      on_aggregate = [&w, &p, u](NodeId v, PartId j, std::uint64_t agg) {
        if (p.part(v) == j) w.aux[u(v)] = std::max(w.aux[u(v)], agg);
      };
      cross = [&w, u](NodeId v, NodeId,
                      EdgeId) -> std::optional<std::uint64_t> {
        if (w.aux[u(v)] == 0) return std::nullopt;
        return w.aux[u(v)];
      };
      on_cross = [&w, u](NodeId v, NodeId, EdgeId, std::uint64_t x) {
        w.aux[u(v)] = std::max(w.aux[u(v)], x);
      };
      break;
    case HookSet::kNoExchange:
      h.identity = 0;
      combine = [](std::uint64_t a, std::uint64_t b) { return a ^ b; };
      contribution = [&w, u, uj](NodeId v, PartId j) {
        return w.value[u(v)] * 31 + uj(j);
      };
      on_aggregate = [&w, u, uj](NodeId v, PartId j, std::uint64_t agg) {
        w.aux[u(v)] ^= agg + uj(j);
      };
      break;
  }
  h.combine = [&w, combine](std::uint64_t a, std::uint64_t b) {
    ++w.combines;
    return combine(a, b);
  };
  h.contribution = [&w, contribution, uj](NodeId v, PartId j) {
    const std::uint64_t word = contribution(v, j);
    w.log(SuperstepWorld::kContribution, v, uj(j), word, 0);
    return word;
  };
  h.on_aggregate = [&w, on_aggregate, uj](NodeId v, PartId j,
                                          std::uint64_t agg) {
    w.log_aggregate(v, uj(j), agg);
    on_aggregate(v, j, agg);
  };
  if (cross) {
    h.cross_message = [&w, cross, un](NodeId v, NodeId to, EdgeId e) {
      const auto word = cross(v, to, e);
      w.log(SuperstepWorld::kCrossMessage, v, un(to),
            static_cast<std::uint64_t>(e),
            word.has_value() ? *word : ~std::uint64_t{0});
      return word;
    };
    h.on_cross = [&w, on_cross, un](NodeId v, NodeId from, EdgeId e,
                                    std::uint64_t x) {
      w.log(SuperstepWorld::kOnCross, v, un(from),
            static_cast<std::uint64_t>(e), x);
      on_cross(v, from, e, x);
    };
  }
  return h;
}

/// The reference exchange: one round in which every part member sends
/// `cross_message`'s word to each same-part neighbor, in adjacency order.
class ReferenceExchangeProcess final : public Process {
 public:
  ReferenceExchangeProcess(NodeId id, const Partition& partition,
                           const NeighborParts& neighbor_parts,
                           const LoggedHooks& hooks)
      : id_(id),
        partition_(&partition),
        neighbor_parts_(&neighbor_parts),
        hooks_(&hooks) {}

  void on_start(Context& ctx) override {
    const PartId j = partition_->part(id_);
    if (j == kNoPart) return;
    const auto nbs = ctx.neighbors();
    const auto parts = neighbor_parts_->of(id_);
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (parts[k] != j) continue;
      const auto word = hooks_->cross_message(id_, nbs[k].node, nbs[k].edge);
      if (word.has_value()) ctx.send(nbs[k].edge, Message(0, *word));
    }
  }

  void on_round(Context&, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox)
      hooks_->on_cross(id_, in.from, in.edge, in.msg.words[0]);
  }

 private:
  NodeId id_;
  const Partition* partition_;
  const NeighborParts* neighbor_parts_;
  const LoggedHooks* hooks_;
};

/// The reference superstep, every step an engine phase: the exchange (if
/// the hooks have one), the convergecast and the broadcast on the plan, and
/// then the singleton components' local aggregates.
void engine_superstep(Network& net, const SpanningTree& tree,
                      const Partition& p, const ShortcutState& state,
                      const NeighborParts& neighbor_parts,
                      const LoggedHooks& h) {
  if (h.cross_message) {
    std::vector<ReferenceExchangeProcess> procs;
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      procs.emplace_back(v, p, neighbor_parts, h);
    congest::run_phase(net, procs);
  }
  const ComponentPlan& plan = state.plan;
  std::vector<std::uint64_t> root_agg(plan.slots.size(), h.identity);
  testutil::reference_component_convergecast(
      net, tree, plan, h.contribution, h.combine,
      [&](NodeId root, PartId j, std::uint64_t agg) {
        root_agg[plan.slot_index(root, j)] = agg;
      });
  testutil::reference_component_broadcast(
      net, tree, plan,
      [&](NodeId root, PartId j) {
        return root_agg[plan.slot_index(root, j)];
      },
      [&](NodeId v, PartId j, std::uint64_t value, std::int32_t) {
        h.on_aggregate(v, j, value);
      });
  // A member is a singleton when none of its tree edges carries its part;
  // read off the shortcut itself, not the plan the runner uses.
  const auto carries = [&](EdgeId e, PartId j) {
    const auto& list =
        state.shortcut.parts_on_edge[static_cast<std::size_t>(e)];
    return std::binary_search(list.begin(), list.end(), j);
  };
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    const PartId j = p.part(v);
    if (j == kNoPart) continue;
    const EdgeId up = tree.parent_edge[i];
    if (up != kNoEdge && carries(up, j)) continue;
    if (std::any_of(tree.children_edges[i].begin(),
                    tree.children_edges[i].end(),
                    [&](EdgeId e) { return carries(e, j); }))
      continue;
    h.on_aggregate(v, j, h.contribution(v, j));
  }
}

TEST(ParallelSuperstep, ReplayMatchesEngine) {
  // The second superstep's verdicts are all still 0, so its exchange sends
  // nothing and takes no round.
  const std::vector<HookSet> steps = {
      HookSet::kMinFlood,      HookSet::kMaxVerdict, HookSet::kSaturatingSum,
      HookSet::kNoExchange,    HookSet::kMaxVerdict, HookSet::kSaturatingSum,
      HookSet::kMinFlood,      HookSet::kNoExchange};

  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    SCOPED_TRACE(f.name);
    testutil::Sim sim(f.g, f.root);
    Shortcut s = greedy_blocked_shortcut(f.g, sim.tree, f.p, 3);
    const ShortcutState state =
        compute_shortcut_state(sim.net, sim.tree, f.p, std::move(s));
    const NeighborParts neighbor_parts =
        exchange_neighbor_parts(sim.net, f.p);

    SuperstepWorld hosted(f.g.num_nodes());
    SuperstepWorld engine(f.g.num_nodes());
    SuperstepRunner runner(sim.net, sim.tree, f.p, state, neighbor_parts);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      SCOPED_TRACE("superstep " + std::to_string(i));
      const auto measure = [&](auto&& body) {
        const std::int64_t r0 = sim.net.total_rounds();
        const std::int64_t m0 = sim.net.total_messages();
        body();
        return std::make_pair(sim.net.total_rounds() - r0,
                              sim.net.total_messages() - m0);
      };
      const auto got = measure([&] {
        const LoggedHooks h = make_logged_hooks(steps[i], hosted, f.p);
        if (h.cross_message) {
          runner.run(h);
        } else {
          runner.run(SuperstepHooks{h.contribution, h.combine, h.identity,
                                    h.on_aggregate});
        }
      });
      const auto want = measure([&] {
        engine_superstep(sim.net, sim.tree, f.p, state, neighbor_parts,
                         make_logged_hooks(steps[i], engine, f.p));
      });
      EXPECT_EQ(got, want);
      EXPECT_GT(want.first, 0);
      EXPECT_EQ(hosted.value, engine.value);
      EXPECT_EQ(hosted.aux, engine.aux);
      EXPECT_EQ(hosted.combines, engine.combines);
      EXPECT_EQ(hosted.take_calls(), engine.take_calls());
    }
  }
}

// The representation broadcast's stats are the plan's broadcast schedule:
// any engine broadcast on the same plan, whatever words it carries, takes
// the same rounds and sends one message per slot that rides its parent
// edge. The superstep runner adds these stats instead of simulating it.
TEST(ParallelRepresentation, BroadcastStatsAreThePlansSchedule) {
  for (const testutil::SuperstepFamily& f : testutil::superstep_families()) {
    SCOPED_TRACE(f.name);
    testutil::Sim sim(f.g, f.root);
    Shortcut s = greedy_blocked_shortcut(f.g, sim.tree, f.p, 3);
    const ShortcutState state =
        compute_shortcut_state(sim.net, sim.tree, f.p, std::move(s));
    const ComponentPlan& plan = state.plan;
    const auto parent_slots =
        std::count_if(plan.slots.begin(), plan.slots.end(),
                      [](const ComponentPlan::Slot& slot) {
                        return slot.has_parent();
                      });
    EXPECT_GT(state.broadcast.rounds, 0);
    EXPECT_EQ(state.broadcast.messages, parent_slots);

    const auto ignore = [](NodeId, PartId, std::uint64_t, std::int32_t) {};
    const PhaseStats zeros = testutil::reference_component_broadcast(
        sim.net, sim.tree, plan, [](NodeId, PartId) { return 0; }, ignore);
    const PhaseStats mixed = testutil::reference_component_broadcast(
        sim.net, sim.tree, plan,
        [](NodeId root, PartId j) {
          return static_cast<std::uint64_t>(root) * 7919 +
                 static_cast<std::uint64_t>(j);
        },
        ignore);
    EXPECT_EQ(std::make_pair(zeros.rounds, zeros.messages),
              std::make_pair(state.broadcast.rounds,
                             state.broadcast.messages));
    EXPECT_EQ(std::make_pair(mixed.rounds, mixed.messages),
              std::make_pair(state.broadcast.rounds,
                             state.broadcast.messages));
  }
}

class AddReplayedInsidePhaseProcess final : public Process {
 public:
  explicit AddReplayedInsidePhaseProcess(Network* net) : net_(net) {}
  void on_start(Context&) override { net_->add_replayed(PhaseStats{1, 1}); }
  void on_round(Context&, std::span<const Incoming>) override {}

 private:
  Network* net_;
};

TEST(ParallelSuperstep, AddReplayedGuards) {
  const Graph g = make_path(3);
  Network net(g);
  net.add_replayed(PhaseStats{3, 5});
  EXPECT_EQ(net.total_rounds(), 3);
  EXPECT_EQ(net.total_messages(), 5);

  EXPECT_THROW(net.add_replayed(PhaseStats{-1, 0}), CheckFailure);
  EXPECT_THROW(net.add_replayed(PhaseStats{0, -1}), CheckFailure);
  std::vector<AddReplayedInsidePhaseProcess> procs(
      static_cast<std::size_t>(g.num_nodes()),
      AddReplayedInsidePhaseProcess(&net));
  EXPECT_THROW(congest::run_phase(net, procs), CheckFailure);
  EXPECT_EQ(net.total_rounds(), 3);
  EXPECT_EQ(net.total_messages(), 5);
}

}  // namespace
}  // namespace lcs
