/// \file engine_reference.h
/// The engine protocols behind the shortcut layer's host-counted schedules.
///
/// Lemma 2's casts (shortcut/tree_routing.h), CoreSlow's stream
/// (shortcut/core_slow.h), and CoreFast's sampled stream and routing phase
/// (shortcut/core_fast.h) are counted on the host. These are the protocols
/// they replace, each a phase on the engine with one process per node; the
/// reference tests run both and require the same outputs, rounds and
/// messages. superstep_reference.h builds its node-level engine superstep
/// from the two casts here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/core_fast.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_ops.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs::testutil {

namespace reference_detail {

using congest::Context;
using congest::Incoming;
using congest::Message;

/// One pending message on a contested edge with its scheduling key.
struct Pending {
  std::uint64_t key1 = 0;  // primary priority (smaller first)
  std::uint64_t key2 = 0;  // tie-break
  std::uint64_t seq = 0;   // FIFO tie-break / kFifo key
  PartId j = kNoPart;
  std::int32_t root_depth = 0;
  std::uint64_t value = 0;

  bool operator>(const Pending& o) const {
    if (key1 != o.key1) return key1 > o.key1;
    if (key2 != o.key2) return key2 > o.key2;
    return seq > o.seq;
  }
};

inline Pending make_pending(RoutingPriority priority, std::uint64_t seq,
                            PartId j, std::uint64_t value,
                            std::int32_t root_depth) {
  Pending p;
  p.seq = seq;
  p.j = j;
  p.value = value;
  p.root_depth = root_depth;
  switch (priority) {
    case RoutingPriority::kRootDepth:
      p.key1 = static_cast<std::uint64_t>(root_depth);
      p.key2 = static_cast<std::uint64_t>(j);
      break;
    case RoutingPriority::kPartId:
      p.key1 = static_cast<std::uint64_t>(j);
      break;
    case RoutingPriority::kFifo:
      p.key1 = seq;
      break;
  }
  return p;
}

/// A min-heap of pending messages on a fixed slice of a phase-wide buffer.
/// Keys are unique per node (seq breaks every tie), so the pop order is the
/// sorted key order whatever the heap layout.
struct HeapSlice {
  Pending* base;
  std::uint32_t& len;
  std::size_t capacity;

  bool empty() const { return len == 0; }
  void push(const Pending& p) {
    LCS_CHECK(len < capacity, "routing queue exceeds its planned capacity");
    base[len++] = p;
    std::push_heap(base, base + len, std::greater<>());
  }
  Pending pop() {
    std::pop_heap(base, base + len, std::greater<>());
    return base[--len];
  }
};

/// One stateless process serves every node of a phase: the per-node state
/// lives in the phase's flat buffers and node v touches only its own slices,
/// so concurrent callbacks for different nodes never share a write.
template <class Phase>
class PhaseProcess final : public congest::Process {
 public:
  explicit PhaseProcess(Phase& phase) : phase_(phase) {}
  void on_start(Context& ctx) override { phase_.start(ctx); }
  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    phase_.round(ctx, inbox);
  }

 private:
  Phase& phase_;
};

template <class Phase>
congest::PhaseStats run_plan_phase(congest::Network& net, Phase& phase) {
  PhaseProcess<Phase> process(phase);
  std::vector<congest::Process*> procs(
      static_cast<std::size_t>(net.num_nodes()), &process);
  return net.run(procs);
}

/// Each node's child edges, ascending EdgeId (the per-round flush order),
/// and the parts on each, ascending: CSR over nodes, then over child edges.
/// A broadcast queues at most one message per part on an edge, so an
/// edge's parts range is also its queue.
struct ChildQueues {
  std::vector<std::size_t> child_off;
  std::vector<EdgeId> child_edge;
  std::vector<std::size_t> queue_off;
  std::vector<PartId> queue_part;

  ChildQueues(const SpanningTree& tree, const ComponentPlan& plan) {
    const auto n = static_cast<std::size_t>(tree.num_nodes());
    child_off.push_back(0);
    queue_off.push_back(0);
    for (std::size_t v = 0; v < n; ++v) {
      std::vector<EdgeId> edges = tree.children_edges[v];
      std::sort(edges.begin(), edges.end());
      for (const EdgeId e : edges) {
        child_edge.push_back(e);
        // The child's parent-edge slots are the parts on edge e.
        const auto u = static_cast<std::size_t>(tree.lower_endpoint(e));
        for (std::size_t s = plan.slot_off[u]; s < plan.slot_off[u + 1]; ++s)
          if (plan.slots[s].has_parent()) queue_part.push_back(plan.slots[s].part);
        queue_off.push_back(queue_part.size());
      }
      child_off.push_back(child_edge.size());
    }
  }
};

// ---------------------------------------------------------------------------
// Broadcast (root -> component)
// ---------------------------------------------------------------------------

class BroadcastPhase {
 public:
  BroadcastPhase(
      const SpanningTree& tree, const ComponentPlan& plan,
      const std::function<std::uint64_t(NodeId, PartId)>& root_value,
      const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
          on_receive,
      RoutingPriority priority)
      : tree_(tree),
        plan_(plan),
        queues_(tree, plan),
        root_value_(root_value),
        on_receive_(on_receive),
        priority_(priority),
        heap_(queues_.queue_part.size()),
        heap_len_(queues_.child_edge.size(), 0),
        seq_(static_cast<std::size_t>(tree.num_nodes()), 0) {}

  // The node's slots without a parent edge are the components it roots,
  // ascending by part.
  void start(Context& ctx) {
    const NodeId v = ctx.id();
    const auto i = static_cast<std::size_t>(v);
    const std::int32_t my_depth = tree_.depth[i];
    for (std::size_t s = plan_.slot_off[i]; s < plan_.slot_off[i + 1]; ++s) {
      if (plan_.slots[s].has_parent()) continue;
      const PartId j = plan_.slots[s].part;
      const std::uint64_t value = root_value_(v, j);
      on_receive_(v, j, value, my_depth);
      enqueue_down(v, j, value, my_depth);
    }
    flush(ctx);
  }

  void round(Context& ctx, std::span<const Incoming> inbox) {
    const NodeId v = ctx.id();
    for (const auto& in : inbox) {
      const auto j = util::checked_cast<PartId>(in.msg.words[0]);
      const std::uint64_t value = in.msg.words[1];
      const auto rd = util::checked_cast<std::int32_t>(in.msg.words[2]);
      on_receive_(v, j, value, rd);
      enqueue_down(v, j, value, rd);
    }
    flush(ctx);
  }

 private:
  HeapSlice queue(std::size_t k) {
    return {heap_.data() + queues_.queue_off[k], heap_len_[k],
            queues_.queue_off[k + 1] - queues_.queue_off[k]};
  }

  void enqueue_down(NodeId v, PartId j, std::uint64_t value,
                    std::int32_t root_depth) {
    const auto i = static_cast<std::size_t>(v);
    for (std::size_t k = queues_.child_off[i]; k < queues_.child_off[i + 1];
         ++k) {
      const auto first = queues_.queue_part.begin() +
                         static_cast<std::ptrdiff_t>(queues_.queue_off[k]);
      const auto last = queues_.queue_part.begin() +
                        static_cast<std::ptrdiff_t>(queues_.queue_off[k + 1]);
      if (std::binary_search(first, last, j))
        queue(k).push(make_pending(priority_, seq_[i]++, j, value, root_depth));
    }
  }

  // Child edges ascend by EdgeId, so this walk is the per-round send order
  // across contested edges — a program order, never a container artifact.
  void flush(Context& ctx) {
    const auto i = static_cast<std::size_t>(ctx.id());
    bool more = false;
    for (std::size_t k = queues_.child_off[i]; k < queues_.child_off[i + 1];
         ++k) {
      HeapSlice q = queue(k);
      if (q.empty()) continue;
      const Pending top = q.pop();
      ctx.send(queues_.child_edge[k],
               Message(0, static_cast<std::uint64_t>(top.j), top.value,
                       static_cast<std::uint64_t>(top.root_depth)));
      if (!q.empty()) more = true;
    }
    if (more) ctx.wake_next_round();
  }

  const SpanningTree& tree_;
  const ComponentPlan& plan_;
  ChildQueues queues_;
  const std::function<std::uint64_t(NodeId, PartId)>& root_value_;
  const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
      on_receive_;
  RoutingPriority priority_;
  // Child edge k's queue: heap_[queues_.queue_off[k] ..], heap_len_[k] long.
  std::vector<Pending> heap_;
  std::vector<std::uint32_t> heap_len_;
  std::vector<std::uint64_t> seq_;  // per node
};

// ---------------------------------------------------------------------------
// Convergecast (component -> root)
// ---------------------------------------------------------------------------

class ConvergecastPhase {
 public:
  ConvergecastPhase(
      const SpanningTree& tree, const ComponentPlan& plan,
      const std::function<std::uint64_t(NodeId, PartId)>& contribution,
      const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>&
          combine,
      const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result,
      RoutingPriority priority)
      : tree_(tree),
        plan_(plan),
        contribution_(contribution),
        combine_(combine),
        on_root_result_(on_root_result),
        priority_(priority),
        state_(plan.slots.size()),
        expected_(plan.slots.size(), 0),
        heap_(plan.slots.size()),
        heap_len_(static_cast<std::size_t>(tree.num_nodes()), 0),
        seq_(static_cast<std::size_t>(tree.num_nodes()), 0) {
    // A slot expects one message per child edge carrying its part: one per
    // child slot that links to it.
    for (const ComponentPlan::Slot& slot : plan.slots)
      if (slot.has_parent()) ++expected_[slot.parent];
  }

  void start(Context& ctx) {
    const auto i = static_cast<std::size_t>(ctx.id());
    for (std::size_t s = plan_.slot_off[i]; s < plan_.slot_off[i + 1]; ++s)
      state_[s].acc = contribution_(ctx.id(), plan_.slots[s].part);
    check_ready(ctx.id());
    flush(ctx);
  }

  void round(Context& ctx, std::span<const Incoming> inbox) {
    for (const auto& in : inbox) {
      const std::size_t s = plan_.slot_index(
          ctx.id(), util::checked_cast<PartId>(in.msg.words[0]));
      LCS_CHECK(s < plan_.slots.size(), "convergecast message for unknown id");
      SlotState& st = state_[s];
      st.acc = combine_(st.acc, in.msg.words[1]);
      ++st.received;
    }
    check_ready(ctx.id());
    flush(ctx);
  }

  /// True once every component of every node has been dispatched.
  bool quiesced_complete() const {
    return std::all_of(state_.begin(), state_.end(),
                       [](const SlotState& st) { return st.dispatched; });
  }

 private:
  struct SlotState {
    std::uint64_t acc = 0;
    std::int32_t received = 0;
    bool dispatched = false;
  };

  HeapSlice queue(std::size_t i) {
    return {heap_.data() + plan_.slot_off[i], heap_len_[i],
            plan_.slot_off[i + 1] - plan_.slot_off[i]};
  }

  // Slots ascend by part, so simultaneously-ready components take seq_ (the
  // kFifo scheduling key) in part order.
  void check_ready(NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    for (std::size_t s = plan_.slot_off[i]; s < plan_.slot_off[i + 1]; ++s) {
      const ComponentPlan::Slot& slot = plan_.slots[s];
      SlotState& st = state_[s];
      if (st.dispatched || st.received < expected_[s]) continue;
      st.dispatched = true;
      if (slot.has_parent()) {
        queue(i).push(make_pending(priority_, seq_[i]++, slot.part, st.acc,
                                   slot.parent_root_depth));
      } else {
        on_root_result_(v, slot.part, st.acc);
      }
    }
  }

  void flush(Context& ctx) {
    const auto i = static_cast<std::size_t>(ctx.id());
    HeapSlice q = queue(i);
    if (q.empty()) return;
    const Pending top = q.pop();
    ctx.send(tree_.parent_edge[i],
             Message(0, static_cast<std::uint64_t>(top.j), top.value));
    if (!q.empty()) ctx.wake_next_round();
  }

  const SpanningTree& tree_;
  const ComponentPlan& plan_;
  const std::function<std::uint64_t(NodeId, PartId)>& contribution_;
  const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine_;
  const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result_;
  RoutingPriority priority_;
  std::vector<SlotState> state_;  // aligned with plan_.slots
  std::vector<std::int32_t> expected_;  // aligned with plan_.slots
  // Node v's parent-edge queue: heap_[plan_.slot_off[v] ..], heap_len_[v]
  // long. It holds at most one message per slot.
  std::vector<Pending> heap_;
  std::vector<std::uint32_t> heap_len_;
  std::vector<std::uint64_t> seq_;  // per node
};

// ---------------------------------------------------------------------------
// CoreSlow and CoreFast
// ---------------------------------------------------------------------------

enum Tag : std::uint32_t { kId, kEnd };

/// Bottom-up list streaming (CoreSlow): wait for END from every child,
/// union the ids, decide usability of the parent edge, stream ids (or just
/// END) upward.
class CoreSlowProcess final : public congest::Process {
 public:
  CoreSlowProcess(NodeId id, const SpanningTree& tree, PartId own_part,
                  std::int32_t threshold)
      : id_(id), tree_(tree), threshold_(threshold) {
    if (own_part != kNoPart) ids_.insert(own_part);
  }

  // Outputs.
  bool unusable = false;
  std::vector<PartId> assigned;  ///< ids on the parent edge (usable only)

  void on_start(Context& ctx) override {
    pending_children_ = util::checked_cast<int>(
        tree_.children_edges[static_cast<std::size_t>(id_)].size());
    if (pending_children_ == 0) begin_streaming(ctx);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox) {
      switch (in.msg.tag) {
        case kId: {
          const auto j = util::checked_cast<PartId>(in.msg.words[0]);
          // Cap the stored set just above the threshold: once the edge is
          // over budget the exact surplus no longer matters.
          if (util::checked_cast<std::int32_t>(ids_.size()) <= threshold_)
            ids_.insert(j);
          break;
        }
        case kEnd:
          --pending_children_;
          break;
        default:
          LCS_CHECK(false, "unknown CoreSlow tag");
      }
    }
    if (!streaming_ && pending_children_ == 0) {
      begin_streaming(ctx);
    } else if (streaming_) {
      continue_streaming(ctx);
    }
  }

 private:
  void begin_streaming(Context& ctx) {
    streaming_ = true;
    if (util::checked_cast<std::int32_t>(ids_.size()) > threshold_) {
      unusable = true;
    } else {
      assigned.assign(ids_.begin(), ids_.end());
    }
    cursor_ = 0;
    continue_streaming(ctx);
  }

  void continue_streaming(Context& ctx) {
    if (end_sent_) return;
    const EdgeId pe = tree_.parent_edge[static_cast<std::size_t>(id_)];
    if (pe == kNoEdge) {  // tree root: nothing above to inform
      end_sent_ = true;
      return;
    }
    if (!unusable && cursor_ < assigned.size()) {
      ctx.send(pe, Message(kId, static_cast<std::uint64_t>(
                                    assigned[cursor_++])));
      ctx.wake_next_round();
      return;
    }
    ctx.send(pe, Message(kEnd));
    end_sent_ = true;
  }

  NodeId id_;
  const SpanningTree& tree_;
  std::int32_t threshold_;
  std::set<PartId> ids_;
  int pending_children_ = 0;
  bool streaming_ = false;
  bool end_sent_ = false;
  std::size_t cursor_ = 0;
};

/// CoreFast's phase 2: bottom-up streaming of *active* part ids; an edge
/// becomes unusable when at least `threshold` distinct active ids want it.
class SampledStreamProcess final : public congest::Process {
 public:
  SampledStreamProcess(NodeId id, const SpanningTree& tree, PartId active_id,
                       std::int32_t threshold)
      : id_(id), tree_(tree), threshold_(threshold) {
    if (active_id != kNoPart) ids_.insert(active_id);
  }

  bool unusable = false;

  void on_start(Context& ctx) override {
    pending_children_ = util::checked_cast<int>(
        tree_.children_edges[static_cast<std::size_t>(id_)].size());
    if (pending_children_ == 0) begin_streaming(ctx);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox) {
      switch (in.msg.tag) {
        case kId:
          if (util::checked_cast<std::int32_t>(ids_.size()) < threshold_)
            ids_.insert(util::checked_cast<PartId>(in.msg.words[0]));
          else
            saturated_ = true;
          break;
        case kEnd:
          --pending_children_;
          break;
        default:
          LCS_CHECK(false, "unknown CoreFast tag");
      }
    }
    if (!streaming_ && pending_children_ == 0) {
      begin_streaming(ctx);
    } else if (streaming_) {
      continue_streaming(ctx);
    }
  }

 private:
  void begin_streaming(Context& ctx) {
    streaming_ = true;
    // Unusable when the count of distinct active ids reaches the threshold.
    if (saturated_ ||
        util::checked_cast<std::int32_t>(ids_.size()) >= threshold_) {
      unusable = true;
    } else {
      to_send_.assign(ids_.begin(), ids_.end());
    }
    continue_streaming(ctx);
  }

  void continue_streaming(Context& ctx) {
    if (end_sent_) return;
    const EdgeId pe = tree_.parent_edge[static_cast<std::size_t>(id_)];
    if (pe == kNoEdge) {
      end_sent_ = true;
      return;
    }
    if (!unusable && cursor_ < to_send_.size()) {
      ctx.send(pe, Message(kId, static_cast<std::uint64_t>(
                                    to_send_[cursor_++])));
      ctx.wake_next_round();
      return;
    }
    ctx.send(pe, Message(kEnd));
    end_sent_ = true;
  }

  NodeId id_;
  const SpanningTree& tree_;
  std::int32_t threshold_;
  std::set<PartId> ids_;  // bounded: never grows past threshold_
  std::vector<PartId> to_send_;
  bool saturated_ = false;
  int pending_children_ = 0;
  bool streaming_ = false;
  bool end_sent_ = false;
  std::size_t cursor_ = 0;
};

/// CoreFast's phase 3 (Algorithm 2 steps 3–5): route every part id up the
/// tree until its first unusable edge; forward the minimum unforwarded id
/// each round.
class RouteAllProcess final : public congest::Process {
 public:
  RouteAllProcess(NodeId id, const SpanningTree& tree, PartId own_part,
                  bool parent_unusable)
      : id_(id), tree_(tree), parent_unusable_(parent_unusable) {
    if (own_part != kNoPart) {
      known_.insert(own_part);
      unforwarded_.push(own_part);
    }
  }

  /// Q_v: all ids that can see this node's parent edge.
  std::vector<PartId> ids() const {
    return std::vector<PartId>(known_.begin(), known_.end());
  }

  void on_start(Context& ctx) override { forward(ctx); }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox) {
      const auto j = util::checked_cast<PartId>(in.msg.words[0]);
      if (known_.insert(j).second) unforwarded_.push(j);
    }
    forward(ctx);
  }

 private:
  void forward(Context& ctx) {
    const EdgeId pe = tree_.parent_edge[static_cast<std::size_t>(id_)];
    if (pe == kNoEdge || parent_unusable_ || unforwarded_.empty()) return;
    const PartId j = unforwarded_.top();
    unforwarded_.pop();
    ctx.send(pe, Message(kId, static_cast<std::uint64_t>(j)));
    if (!unforwarded_.empty()) ctx.wake_next_round();
  }

  NodeId id_;
  const SpanningTree& tree_;
  bool parent_unusable_;
  std::set<PartId> known_;
  // Min-first queue of the known ids not yet forwarded.
  std::priority_queue<PartId, std::vector<PartId>, std::greater<PartId>>
      unforwarded_;
};

}  // namespace reference_detail

/// The engine broadcast from every block-component root to all nodes of
/// its component. `root_value(v, j)` is invoked once per component rooted
/// at node `v` with part id `j`; `on_receive(v, j, value, root_depth)`
/// fires at every node of the component, the root included. Returns the
/// phase stats, which the engine also charges.
inline congest::PhaseStats reference_component_broadcast(
    congest::Network& net, const SpanningTree& tree, const ComponentPlan& plan,
    const std::function<std::uint64_t(NodeId root, PartId j)>& root_value,
    const std::function<void(NodeId v, PartId j, std::uint64_t value,
                             std::int32_t root_depth)>& on_receive,
    RoutingPriority priority = RoutingPriority::kRootDepth) {
  reference_detail::BroadcastPhase phase(tree, plan, root_value, on_receive,
                                         priority);
  return reference_detail::run_plan_phase(net, phase);
}

/// The engine convergecast of one word from every node of each block
/// component to the component root. `combine` must be associative and
/// commutative; `on_root_result(v, j, agg)` fires at each component root.
/// The plan must carry root depths.
inline congest::PhaseStats reference_component_convergecast(
    congest::Network& net, const SpanningTree& tree, const ComponentPlan& plan,
    const std::function<std::uint64_t(NodeId v, PartId j)>& contribution,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine,
    const std::function<void(NodeId root, PartId j, std::uint64_t agg)>&
        on_root_result,
    RoutingPriority priority = RoutingPriority::kRootDepth) {
  LCS_CHECK(plan.has_root_depths, "convergecast needs the plan's root depths");
  reference_detail::ConvergecastPhase phase(tree, plan, contribution, combine,
                                            on_root_result, priority);
  const congest::PhaseStats stats = reference_detail::run_plan_phase(net, phase);
  LCS_CHECK(phase.quiesced_complete(),
            "convergecast quiesced with a component undispatched");
  return stats;
}

/// A reference core's shortcut, and which nodes' parent edges its stream
/// declared unusable.
struct ReferenceCore {
  Shortcut shortcut;
  std::vector<bool> unusable;
};

/// CoreSlow on the engine, unusable above `threshold` distinct ids.
inline ReferenceCore reference_core_slow(
    congest::Network& net, const SpanningTree& tree,
    const congest::PerNode<PartId>& active_part_of, std::int32_t threshold) {
  const NodeId n = net.num_nodes();
  std::vector<reference_detail::CoreSlowProcess> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    procs.emplace_back(v, tree, active_part_of[static_cast<std::size_t>(v)],
                       threshold);
  congest::run_phase(net, procs);

  ReferenceCore result;
  result.shortcut.parts_on_edge.resize(
      static_cast<std::size_t>(net.graph().num_edges()));
  for (NodeId v = 0; v < n; ++v) {
    auto& p = procs[static_cast<std::size_t>(v)];
    const EdgeId pe = tree.parent_edge[static_cast<std::size_t>(v)];
    result.unusable.push_back(pe != kNoEdge && p.unusable);
    if (pe != kNoEdge && !p.unusable)
      result.shortcut.parts_on_edge[static_cast<std::size_t>(pe)] =
          std::move(p.assigned);
  }
  return result;
}

/// CoreFast with its sampled stream and its routing phase on the engine
/// (the seed flood is the host-counted `broadcast_word_from_root`).
inline ReferenceCore reference_core_fast(
    congest::Network& net, const SpanningTree& tree,
    const congest::PerNode<PartId>& active_part_of,
    const CoreFastParams& params) {
  const NodeId n = net.num_nodes();
  const auto seeds = broadcast_word_from_root(net, tree, params.seed);
  const double p = core_fast_sampling_probability(n, params.c, params.gamma);
  const auto threshold = util::checked_trunc<std::int32_t>(
      std::max(1.0, std::ceil(4.0 * static_cast<double>(params.c) * p)));

  std::vector<reference_detail::SampledStreamProcess> stream;
  stream.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const PartId j = active_part_of[static_cast<std::size_t>(v)];
    const bool active =
        j != kNoPart && hash_coin(seeds[static_cast<std::size_t>(v)],
                                  static_cast<std::uint64_t>(j), p);
    stream.emplace_back(v, tree, active ? j : kNoPart, threshold);
  }
  congest::run_phase(net, stream);

  std::vector<reference_detail::RouteAllProcess> route;
  route.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    route.emplace_back(v, tree, active_part_of[static_cast<std::size_t>(v)],
                       stream[static_cast<std::size_t>(v)].unusable);
  congest::run_phase(net, route);

  ReferenceCore result;
  result.shortcut.parts_on_edge.resize(
      static_cast<std::size_t>(net.graph().num_edges()));
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId pe = tree.parent_edge[static_cast<std::size_t>(v)];
    const bool unusable = stream[static_cast<std::size_t>(v)].unusable;
    result.unusable.push_back(pe != kNoEdge && unusable);
    if (pe != kNoEdge && !unusable)
      result.shortcut.parts_on_edge[static_cast<std::size_t>(pe)] =
          route[static_cast<std::size_t>(v)].ids();
  }
  return result;
}

}  // namespace lcs::testutil
