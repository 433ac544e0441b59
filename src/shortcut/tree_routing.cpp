#include "shortcut/tree_routing.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

namespace {

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

Pending make_pending(RoutingPriority priority, std::uint64_t seq, PartId j,
                     std::uint64_t value, std::int32_t root_depth) {
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
  auto& procs = net.process_scratch();
  procs.assign(static_cast<std::size_t>(net.num_nodes()), &process);
  return net.run(procs);
}

void check_plan(const congest::Network& net, const SpanningTree& tree,
                const ComponentPlan& plan) {
  const auto n = static_cast<std::size_t>(net.num_nodes());
  LCS_CHECK(plan.child_off.size() == n + 1 && plan.slot_off.size() == n + 1 &&
                tree.depth.size() == n,
            "component plan built for a different network");
}

/// `[first, last)` of a CSR slice as iterators into `values`.
template <class T>
std::pair<typename std::vector<T>::const_iterator,
          typename std::vector<T>::const_iterator>
slice(const std::vector<T>& values, std::size_t first, std::size_t last) {
  return {values.begin() + static_cast<std::ptrdiff_t>(first),
          values.begin() + static_cast<std::ptrdiff_t>(last)};
}

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
        root_value_(root_value),
        on_receive_(on_receive),
        priority_(priority),
        heap_(plan.queue_part.size()),
        heap_len_(plan.child_edge.size(), 0),
        seq_(static_cast<std::size_t>(tree.num_nodes()), 0) {}

  // The node's slots without a parent edge are the components it roots,
  // ascending by part.
  void start(Context& ctx) {
    const NodeId v = ctx.id();
    const auto i = static_cast<std::size_t>(v);
    const std::int32_t my_depth = tree_.depth[i];
    for (std::size_t s = plan_.slot_off[i]; s < plan_.slot_off[i + 1]; ++s) {
      if (plan_.slots[s].has_parent) continue;
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
    return {heap_.data() + plan_.queue_off[k], heap_len_[k],
            plan_.queue_off[k + 1] - plan_.queue_off[k]};
  }

  void enqueue_down(NodeId v, PartId j, std::uint64_t value,
                    std::int32_t root_depth) {
    const auto i = static_cast<std::size_t>(v);
    for (std::size_t k = plan_.child_off[i]; k < plan_.child_off[i + 1]; ++k) {
      const auto [first, last] =
          slice(plan_.queue_part, plan_.queue_off[k], plan_.queue_off[k + 1]);
      if (std::binary_search(first, last, j))
        queue(k).push(make_pending(priority_, seq_[i]++, j, value, root_depth));
    }
  }

  // Child edges ascend by EdgeId, so this walk is the per-round send order
  // across contested edges — a program order, never a container artifact.
  void flush(Context& ctx) {
    const auto i = static_cast<std::size_t>(ctx.id());
    bool more = false;
    for (std::size_t k = plan_.child_off[i]; k < plan_.child_off[i + 1]; ++k) {
      HeapSlice q = queue(k);
      if (q.empty()) continue;
      const Pending top = q.pop();
      ctx.send(plan_.child_edge[k],
               Message(0, static_cast<std::uint64_t>(top.j), top.value,
                       static_cast<std::uint64_t>(top.root_depth)));
      if (!q.empty()) more = true;
    }
    if (more) ctx.wake_next_round();
  }

  const SpanningTree& tree_;
  const ComponentPlan& plan_;
  const std::function<std::uint64_t(NodeId, PartId)>& root_value_;
  const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
      on_receive_;
  RoutingPriority priority_;
  // Child edge k's queue: heap_[plan_.queue_off[k] ..], heap_len_[k] long.
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
        heap_(plan.slots.size()),
        heap_len_(static_cast<std::size_t>(tree.num_nodes()), 0),
        seq_(static_cast<std::size_t>(tree.num_nodes()), 0) {}

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
      if (st.dispatched || st.received < slot.expected) continue;
      st.dispatched = true;
      if (slot.has_parent) {
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
  // Node v's parent-edge queue: heap_[plan_.slot_off[v] ..], heap_len_[v]
  // long. It holds at most one message per slot.
  std::vector<Pending> heap_;
  std::vector<std::uint32_t> heap_len_;
  std::vector<std::uint64_t> seq_;  // per node
};

}  // namespace

std::size_t ComponentPlan::slot_index(NodeId v, PartId j) const {
  const auto i = static_cast<std::size_t>(v);
  const auto [first, last] = slice(slots, slot_off[i], slot_off[i + 1]);
  const auto it = std::lower_bound(
      first, last, j, [](const Slot& s, PartId p) { return s.part < p; });
  if (it == last || it->part != j) return slots.size();
  return static_cast<std::size_t>(it - slots.begin());
}

ComponentPlan make_component_plan(const SpanningTree& tree,
                                  const Shortcut& shortcut) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  ComponentPlan plan;
  plan.child_off.reserve(n + 1);
  plan.slot_off.reserve(n + 1);
  plan.child_off.push_back(0);
  plan.queue_off.push_back(0);
  plan.slot_off.push_back(0);

  const std::vector<PartId> no_parts;
  std::vector<PartId> child_parts;  // scratch: parts on v's child edges
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t child_begin = plan.child_edge.size();
    plan.child_edge.insert(plan.child_edge.end(),
                           tree.children_edges[v].begin(),
                           tree.children_edges[v].end());
    std::sort(plan.child_edge.begin() +
                  static_cast<std::ptrdiff_t>(child_begin),
              plan.child_edge.end());
    child_parts.clear();
    for (std::size_t k = child_begin; k < plan.child_edge.size(); ++k) {
      const auto& list =
          shortcut.parts_on_edge[static_cast<std::size_t>(plan.child_edge[k])];
      plan.queue_part.insert(plan.queue_part.end(), list.begin(), list.end());
      plan.queue_off.push_back(plan.queue_part.size());
      child_parts.insert(child_parts.end(), list.begin(), list.end());
    }
    plan.child_off.push_back(plan.child_edge.size());
    std::sort(child_parts.begin(), child_parts.end());

    // Merge the child-edge parts (counted) with the parent-edge parts; both
    // ascend, so the slots come out sorted by part.
    const EdgeId pe = tree.parent_edge[v];
    const auto& up = pe == kNoEdge
                         ? no_parts
                         : shortcut.parts_on_edge[static_cast<std::size_t>(pe)];
    std::size_t c = 0;
    std::size_t u = 0;
    while (c < child_parts.size() || u < up.size()) {
      ComponentPlan::Slot slot;
      if (u == up.size() ||
          (c < child_parts.size() && child_parts[c] < up[u])) {
        slot.part = child_parts[c];
      } else {
        slot.part = up[u++];
        slot.has_parent = true;
      }
      while (c < child_parts.size() && child_parts[c] == slot.part) {
        ++slot.expected;
        ++c;
      }
      plan.slots.push_back(slot);
    }
    plan.slot_off.push_back(plan.slots.size());
  }
  return plan;
}

congest::PhaseStats run_component_broadcast(
    congest::Network& net, const SpanningTree& tree, const ComponentPlan& plan,
    const std::function<std::uint64_t(NodeId, PartId)>& root_value,
    const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
        on_receive,
    RoutingPriority priority) {
  check_plan(net, tree, plan);
  BroadcastPhase phase(tree, plan, root_value, on_receive, priority);
  return run_plan_phase(net, phase);
}

congest::PhaseStats run_component_convergecast(
    congest::Network& net, const SpanningTree& tree, const ComponentPlan& plan,
    const std::function<std::uint64_t(NodeId, PartId)>& contribution,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine,
    const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result,
    RoutingPriority priority) {
  check_plan(net, tree, plan);
  LCS_CHECK(plan.has_root_depths,
            "convergecast needs the plan's root depths");
  ConvergecastPhase phase(tree, plan, contribution, combine, on_root_result,
                          priority);
  const congest::PhaseStats stats = run_plan_phase(net, phase);
  LCS_CHECK(phase.quiesced_complete(),
            "convergecast quiesced with a component undispatched");
  return stats;
}

}  // namespace lcs
