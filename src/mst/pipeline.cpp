#include "mst/pipeline.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/union_find.h"
#include "mst/boruvka_common.h"
#include "mst/mwoe.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_ops.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;

enum Tag : std::uint32_t { kItem, kEnd };

/// Sorted-merge pipelined convergecast: each node emits its per-fragment
/// minima in increasing fragment order, one per round; fragment f may be
/// emitted once every child's stream is provably past f (its last received
/// fragment id is >= f, or it has ENDed). The standard argument gives
/// O(D + #fragments) rounds.
class UpcastProcess final : public congest::Process {
 public:
  UpcastProcess(NodeId id, const SpanningTree& tree, PartId own_frag,
                std::uint64_t own_candidate)
      : id_(id), tree_(tree) {
    if (own_frag != kNoPart && own_candidate != kNoCandidate)
      best_[own_frag] = own_candidate;
  }

  /// At the tree root: the complete fragment -> MWOE map.
  const std::map<PartId, std::uint64_t>& collected() const { return best_; }

  void on_start(Context& ctx) override {
    for (const EdgeId ce : tree_.children_edges[static_cast<std::size_t>(id_)])
      child_progress_[ce] = -1;  // nothing received yet
    step(ctx);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox) {
      if (in.msg.tag == kItem) {
        const auto f = util::checked_cast<PartId>(in.msg.words[0]);
        const std::uint64_t cand = in.msg.words[1];
        const auto it = best_.find(f);
        if (it == best_.end() || cand < it->second) best_[f] = cand;
        child_progress_[in.edge] = f;
      } else {
        child_progress_.erase(in.edge);
      }
    }
    step(ctx);
  }

 private:
  void step(Context& ctx) {
    if (end_sent_) return;
    const EdgeId pe = tree_.parent_edge[static_cast<std::size_t>(id_)];
    if (pe == kNoEdge) return;  // root only collects

    // Safe frontier: smallest fragment id that might still arrive.
    PartId frontier = std::numeric_limits<PartId>::max();
    for (const auto& [edge, last] : child_progress_)
      frontier = std::min(frontier, last);

    // Emit the next fragment at or below the frontier (children send in
    // strictly increasing order, so nothing smaller can arrive later).
    const auto it = best_.upper_bound(emitted_up_to_);
    if (it != best_.end() &&
        (child_progress_.empty() || it->first <= frontier)) {
      ctx.send(pe, Message(kItem, static_cast<std::uint64_t>(it->first),
                           it->second));
      emitted_up_to_ = it->first;
      ctx.wake_next_round();
      return;
    }
    // Done once every child ended and everything was emitted.
    if (child_progress_.empty() && best_.upper_bound(emitted_up_to_) == best_.end()) {
      ctx.send(pe, Message(kEnd));
      end_sent_ = true;
    }
  }

  NodeId id_;
  const SpanningTree& tree_;
  std::map<PartId, std::uint64_t> best_;
  std::map<EdgeId, PartId> child_progress_;  // child edge -> last frag id
  PartId emitted_up_to_ = -1;
  bool end_sent_ = false;
};

/// Pipelined flood of the root's merge triples down the whole tree.
class DowncastProcess final : public congest::Process {
 public:
  struct Triple {
    PartId frag;
    PartId new_id;
    EdgeId mwoe_edge;
  };

  DowncastProcess(NodeId id, const SpanningTree& tree,
                  const std::vector<Triple>* root_triples)
      : id_(id), tree_(tree), root_triples_(root_triples) {}

  std::vector<Triple> received;

  void on_start(Context& ctx) override {
    if (id_ != tree_.root) return;
    received = *root_triples_;
    for (const auto& t : received) queue_.push_back(t);
    flush(ctx);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox) {
      LCS_CHECK(in.msg.tag == kItem, "unexpected downcast message");
      const Triple t{util::checked_cast<PartId>(in.msg.words[0]),
                     util::checked_cast<PartId>(in.msg.words[1]),
                     util::checked_cast<EdgeId>(in.msg.words[2])};
      received.push_back(t);
      queue_.push_back(t);
    }
    flush(ctx);
  }

 private:
  void flush(Context& ctx) {
    if (cursor_ >= queue_.size()) return;
    const Triple& t = queue_[cursor_++];
    for (const EdgeId ce : tree_.children_edges[static_cast<std::size_t>(id_)])
      ctx.send(ce, Message(kItem, static_cast<std::uint64_t>(t.frag),
                           static_cast<std::uint64_t>(t.new_id),
                           static_cast<std::uint64_t>(t.mwoe_edge)));
    if (cursor_ < queue_.size()) ctx.wake_next_round();
  }

  NodeId id_;
  const SpanningTree& tree_;
  const std::vector<Triple>* root_triples_;
  std::deque<Triple> queue_;
  std::size_t cursor_ = 0;
};

}  // namespace

DistributedMst mst_pipeline(congest::Network& net, const SpanningTree& tree) {
  const Graph& g = net.graph();
  const NodeId n = net.num_nodes();
  const std::int64_t rounds_before = net.total_rounds();

  Partition fragments = make_singleton_partition(n);
  std::vector<bool> mst_edge(static_cast<std::size_t>(g.num_edges()), false);

  const std::int32_t max_phases =
      2 * util::checked_trunc<std::int32_t>(
              std::log2(std::max<double>(2.0, n))) +
      8;
  std::int32_t phase = 0;
  for (;; ++phase) {
    LCS_CHECK(phase < max_phases, "pipeline MST did not converge (bug)");

    const NeighborParts neighbor_parts =
        exchange_neighbor_parts(net, fragments);
    const auto local = local_mwoe_candidates(g, fragments, neighbor_parts);

    // Upcast all fragment MWOEs to the root (O(D + #fragments)).
    std::vector<UpcastProcess> up;
    up.reserve(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v)
      up.emplace_back(v, tree, fragments.part(v),
                      local[static_cast<std::size_t>(v)]);
    congest::run_phase(net, up);
    const auto& mwoes = up[static_cast<std::size_t>(tree.root)].collected();

    // Root merges fragments locally (union-find over O(#fragments) words —
    // the root is a single node and this is its local computation).
    const auto target_of = [&](PartId frag, std::uint64_t cand) {
      const auto& ed = g.edge(candidate_edge(cand));
      return fragments.part(ed.u) == frag ? fragments.part(ed.v)
                                          : fragments.part(ed.u);
    };
    UnionFind uf(static_cast<std::size_t>(n));
    for (const auto& [frag, cand] : mwoes)
      uf.unite(static_cast<std::size_t>(frag),
               static_cast<std::size_t>(target_of(frag, cand)));
    // Representative = smallest fragment id in the merged component. A
    // fragment and its merge target share a set, so one pass covers both.
    std::vector<PartId> rep(static_cast<std::size_t>(n), kNoPart);
    for (const auto& [frag, cand] : mwoes) {
      const std::size_t root_id = uf.find(static_cast<std::size_t>(frag));
      const PartId smaller = std::min(frag, target_of(frag, cand));
      if (rep[root_id] == kNoPart || smaller < rep[root_id])
        rep[root_id] = smaller;
    }

    std::vector<DowncastProcess::Triple> triples;
    triples.reserve(mwoes.size());
    for (const auto& [frag, cand] : mwoes) {
      triples.push_back({frag,
                         rep[uf.find(static_cast<std::size_t>(frag))],
                         candidate_edge(cand)});
    }

    // Downcast the merge decisions (O(D + #fragments)).
    std::vector<DowncastProcess> down;
    down.reserve(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) down.emplace_back(v, tree, &triples);
    congest::run_phase(net, down);

    // Apply locally: adopt new ids, mark merge edges (owner side).
    congest::PerNode<bool> has_outgoing(static_cast<std::size_t>(n), false);
    for (NodeId v = 0; v < n; ++v) {
      for (const auto& t : down[static_cast<std::size_t>(v)].received) {
        if (fragments.part(v) == t.frag) {
          has_outgoing[static_cast<std::size_t>(v)] = true;
          const auto& ed = g.edge(t.mwoe_edge);
          if (ed.u == v || ed.v == v)
            mst_edge[static_cast<std::size_t>(t.mwoe_edge)] = true;
        }
      }
    }
    // Adoption after marking (marking used the old fragment ids).
    for (NodeId v = 0; v < n; ++v) {
      for (const auto& t : down[static_cast<std::size_t>(v)].received) {
        if (fragments.part(v) == t.frag)
          fragments.part_of[static_cast<std::size_t>(v)] = t.new_id;
      }
    }

    if (!global_or(net, tree, has_outgoing)) break;
  }

  return finish_mst(g, mst_edge, phase + 1,
                    net.total_rounds() - rounds_before);
}

}  // namespace lcs
