#include "mst/intra_flood.h"

#include <algorithm>
#include <limits>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/superstep.h"
#include "util/check.h"

namespace lcs {

namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;

class MinFloodProcess final : public congest::Process {
 public:
  MinFloodProcess(NodeId id, const Partition& partition,
                  const NeighborParts& neighbor_parts, std::uint64_t init)
      : value(init),
        id_(id),
        partition_(partition),
        neighbor_parts_(neighbor_parts) {}

  std::uint64_t value;

  void on_start(Context& ctx) override {
    if (partition_.part(id_) == kNoPart) return;
    if (value != std::numeric_limits<std::uint64_t>::max()) announce(ctx);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    bool improved = false;
    for (const auto& in : inbox) {
      if (in.msg.words[0] < value) {
        value = in.msg.words[0];
        improved = true;
      }
    }
    if (improved) announce(ctx);
  }

 private:
  void announce(Context& ctx) {
    const PartId mine = partition_.part(id_);
    const auto nbs = ctx.neighbors();
    const auto nb_parts = neighbor_parts_.of(id_);
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (nb_parts[k] == mine) ctx.send(nbs[k].edge, Message(0, value));
    }
  }

  NodeId id_;
  const Partition& partition_;
  const NeighborParts& neighbor_parts_;
};

}  // namespace

congest::PerNode<std::uint64_t> intra_part_min_flood(
    congest::Network& net, const Partition& partition,
    const NeighborParts& neighbor_parts,
    const congest::PerNode<std::uint64_t>& init) {
  LCS_CHECK(init.size() == static_cast<std::size_t>(net.num_nodes()),
            "one value per node required");
  std::vector<MinFloodProcess> procs;
  procs.reserve(init.size());
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    procs.emplace_back(v, partition, neighbor_parts,
                       init[static_cast<std::size_t>(v)]);
  congest::run_phase(net, procs);

  congest::PerNode<std::uint64_t> out(init.size());
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    out[static_cast<std::size_t>(v)] = procs[static_cast<std::size_t>(v)].value;
  return out;
}

}  // namespace lcs
