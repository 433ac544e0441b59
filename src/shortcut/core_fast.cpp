#include "shortcut/core_fast.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/core_slow.h"
#include "shortcut/tree_ops.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/random.h"

namespace lcs {

namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;

enum Tag : std::uint32_t { kId, kEnd };

/// Sorted duplicate-free id set backed by a flat vector. The id sets here
/// stay small (the streaming phase caps membership at `threshold`; routing
/// holds the ids crossing one tree edge), so binary-search insertion into a
/// reserved vector beats a node-allocating `std::set` on every axis (at
/// most one allocation, contiguous scans, trivial iteration).
class SortedIdSet {
 public:
  void reserve(std::size_t n) { ids_.reserve(n); }

  /// Returns true iff `x` was not present.
  bool insert(PartId x) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), x);
    if (it != ids_.end() && *it == x) return false;
    ids_.insert(it, x);
    return true;
  }

  std::size_t size() const { return ids_.size(); }
  const std::vector<PartId>& values() const { return ids_; }

 private:
  std::vector<PartId> ids_;  // sorted ascending
};

/// Phase 2: bottom-up streaming of *active* part ids; an edge becomes
/// unusable when at least `threshold` distinct active ids want it.
class SampledStreamProcess final : public congest::Process {
 public:
  SampledStreamProcess(NodeId id, const SpanningTree& tree, PartId active_id,
                       std::int32_t threshold)
      : id_(id), tree_(tree), threshold_(threshold) {
    ids_.reserve(static_cast<std::size_t>(threshold));
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
      to_send_ = ids_.values();
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
  SortedIdSet ids_;  // bounded: never grows past threshold_
  std::vector<PartId> to_send_;
  bool saturated_ = false;
  int pending_children_ = 0;
  bool streaming_ = false;
  bool end_sent_ = false;
  std::size_t cursor_ = 0;
};

/// Phase 3 (Algorithm 2 steps 3–5): route every part id up the tree until
/// its first unusable edge; forward the minimum unforwarded id each round.
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
  std::vector<PartId> ids() const { return known_.values(); }

  void on_start(Context& ctx) override { forward(ctx); }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox) {
      const auto j = util::checked_cast<PartId>(in.msg.words[0]);
      if (known_.insert(j)) unforwarded_.push(j);
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
  SortedIdSet known_;
  // Min-first queue: each round forwards the smallest unforwarded id,
  // exactly as iterating a std::set from begin() did. Ids enter at most
  // once (guarded by known_), so the heap holds no duplicates.
  std::priority_queue<PartId, std::vector<PartId>, std::greater<PartId>>
      unforwarded_;
};

}  // namespace

double core_fast_sampling_probability(NodeId n, std::int32_t c, double gamma) {
  LCS_CHECK(n >= 1 && c >= 1 && gamma > 0, "bad CoreFast parameters");
  const double log_n = std::log2(static_cast<double>(std::max<NodeId>(n, 2)));
  return std::min(1.0, gamma * log_n / (2.0 * static_cast<double>(c)));
}

CoreResult core_fast(congest::Network& net, const SpanningTree& tree,
                     const congest::PerNode<PartId>& active_part_of,
                     const CoreFastParams& params) {
  const NodeId n = net.num_nodes();
  LCS_CHECK(params.c >= 1, "congestion budget must be positive");
  LCS_CHECK(active_part_of.size() == static_cast<std::size_t>(n),
            "one part id per node required");

  // Phase 1: flood the shared-randomness seed from the root (O(D) rounds).
  const auto seeds = broadcast_word_from_root(net, tree, params.seed);

  const double p = core_fast_sampling_probability(n, params.c, params.gamma);
  const auto threshold = util::checked_trunc<std::int32_t>(
      std::max(1.0, std::ceil(4.0 * static_cast<double>(params.c) * p)));

  // Phase 2: stream sampled ids bottom-up to find the unusable edges.
  // Every node derives its part's coin from the seed it received — shared
  // randomness without further communication.
  std::vector<SampledStreamProcess> stream;
  stream.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const PartId j = active_part_of[static_cast<std::size_t>(v)];
    const bool active =
        j != kNoPart &&
        hash_coin(seeds[static_cast<std::size_t>(v)],
                  static_cast<std::uint64_t>(j), p);
    stream.emplace_back(v, tree, active ? j : kNoPart, threshold);
  }
  congest::run_phase(net, stream);

  // Phase 3: route all ids up to their first unusable edge.
  std::vector<RouteAllProcess> route;
  route.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    route.emplace_back(v, tree, active_part_of[static_cast<std::size_t>(v)],
                       stream[static_cast<std::size_t>(v)].unusable);
  congest::run_phase(net, route);

  CoreResult result;
  result.shortcut.parts_on_edge.resize(
      static_cast<std::size_t>(net.graph().num_edges()));
  for (NodeId v = 0; v < n; ++v) {
    const bool unusable = stream[static_cast<std::size_t>(v)].unusable;
    const EdgeId pe = tree.parent_edge[static_cast<std::size_t>(v)];
    if (pe != kNoEdge && !unusable) {
      result.shortcut.parts_on_edge[static_cast<std::size_t>(pe)] =
          route[static_cast<std::size_t>(v)].ids();
    }
  }
  return result;
}

}  // namespace lcs
