#include "shortcut/core_slow.h"

#include <algorithm>
#include <set>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;

enum Tag : std::uint32_t { kId, kEnd };

/// Bottom-up list streaming: wait for END from every child, union the ids,
/// decide usability of the parent edge, stream ids (or just END) upward.
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

}  // namespace

CoreResult core_slow(congest::Network& net, const SpanningTree& tree,
                     const congest::PerNode<PartId>& active_part_of,
                     std::int32_t c) {
  LCS_CHECK(c >= 1, "congestion budget must be positive");
  return core_slow_threshold(net, tree, active_part_of, 2 * c);
}

CoreResult core_slow_threshold(congest::Network& net, const SpanningTree& tree,
                               const congest::PerNode<PartId>& active_part_of,
                               std::int32_t threshold) {
  LCS_CHECK(threshold >= 1, "threshold must be positive");
  const NodeId n = net.num_nodes();
  LCS_CHECK(active_part_of.size() == static_cast<std::size_t>(n),
            "one part id per node required");

  std::vector<CoreSlowProcess> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    procs.emplace_back(v, tree, active_part_of[static_cast<std::size_t>(v)],
                       threshold);
  congest::run_phase(net, procs);

  CoreResult result;
  result.shortcut.parts_on_edge.resize(
      static_cast<std::size_t>(net.graph().num_edges()));
  for (NodeId v = 0; v < n; ++v) {
    auto& p = procs[static_cast<std::size_t>(v)];
    const EdgeId pe = tree.parent_edge[static_cast<std::size_t>(v)];
    if (pe != kNoEdge && !p.unusable) {
      result.shortcut.parts_on_edge[static_cast<std::size_t>(pe)] =
          std::move(p.assigned);
    }
  }
  return result;
}

}  // namespace lcs
