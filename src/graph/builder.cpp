#include "graph/builder.hpp"

#include <stdexcept>

#include "util/parallel.hpp"

namespace dsbfs::graph {

std::uint64_t DistributedGraph::total_subgraph_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const LocalGraph& lg : locals_) {
    total += lg.memory_usage().subgraph_bytes();
  }
  return total;
}

std::uint64_t DistributedGraph::table1_predicted_bytes() const noexcept {
  // Table I: row offsets 8n (nn + nd arrays over all GPUs: n/p * 4 each,
  // summed over p GPUs twice) + 8dp (dn + dd offsets: d * 4 each per GPU)
  // + 4m + 4|Enn| for the columns (the paper's nn columns are 8 bytes,
  // others 4; ours are 4-byte ghost ids plus a ghost table).
  const std::uint64_t n = num_vertices_;
  const std::uint64_t d = num_delegates();
  const std::uint64_t p = static_cast<std::uint64_t>(spec_.total_gpus());
  return 8 * n + 8 * d * p + 4 * num_edges_ + 4 * enn_;
}

DistributedGraph build_distributed(const EdgeList& g, sim::ClusterSpec spec,
                                   std::uint32_t threshold,
                                   sim::Cluster* cluster) {
  DistributedGraph out;
  out.spec_ = spec;
  out.num_vertices_ = g.num_vertices;
  out.num_edges_ = g.size();
  out.weighted_ = g.weighted();
  if (g.weighted() && g.weights.size() != g.size()) {
    throw std::invalid_argument(
        "weighted edge list must carry one weight per directed edge");
  }

  const std::uint64_t p = static_cast<std::uint64_t>(spec.total_gpus());
  if (out.max_local_normals() > static_cast<std::uint64_t>(kInvalidLocal)) {
    throw std::invalid_argument("n/p exceeds 32-bit local id space");
  }

  out.degrees_ = out_degrees(g);
  out.delegates_ = DelegateInfo::select(out.degrees_, threshold);

  DistributedEdges dist =
      distribute_edges(g, out.degrees_, out.delegates_, spec);
  out.enn_ = dist.enn;
  out.end_ = dist.end;
  out.edn_ = dist.edn;
  out.edd_ = dist.edd;

  out.locals_.resize(static_cast<std::size_t>(p));
  const LocalId d = out.delegates_.count();
  // One coarse task per GPU: parallel_for's element cutoff would run these
  // few heavy builds on one thread.
  util::parallel_tasks(static_cast<std::size_t>(p), [&](std::size_t gi) {
    const auto coord = spec.coord_of(static_cast<int>(gi));
    out.locals_[gi] = LocalGraph(spec, coord, g.num_vertices, d,
                                 std::move(dist.gpus[gi]));
  });

  if (cluster != nullptr) {
    for (int gi = 0; gi < spec.total_gpus(); ++gi) {
      out.locals_[static_cast<std::size_t>(gi)].register_on(cluster->device(gi));
    }
  }
  return out;
}

}  // namespace dsbfs::graph
