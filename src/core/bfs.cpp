#include "core/bfs.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/batch_bfs.hpp"
#include "util/hash.hpp"

namespace dsbfs::core {

DistributedBfs::DistributedBfs(const graph::DistributedGraph& graph,
                               sim::Cluster& cluster, BfsOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
}

VertexId sample_traversal_source(const graph::DistributedGraph& graph,
                                 std::uint64_t k) {
  const VertexId n = graph.num_vertices();
  const auto& degrees = graph.degrees();
  // The draw loop below only ends on a vertex with an out-edge.
  if (std::none_of(degrees.begin(), degrees.end(),
                   [](auto deg) { return deg > 0; })) {
    throw std::invalid_argument(
        "sample_traversal_source: no vertex has an out-edge");
  }
  for (std::uint64_t attempt = 0;; ++attempt) {
    const VertexId v = util::splitmix64(util::hash_combine(k, attempt)) % n;
    if (degrees[v] > 0) return v;
  }
}

VertexId DistributedBfs::sample_source(std::uint64_t k) const {
  return sample_traversal_source(graph_, k);
}

BfsResult DistributedBfs::run(VertexId source) {
  if (source >= graph_.num_vertices()) {
    throw std::out_of_range("bfs source out of range");
  }
  // The one-lane run of the lane engine.
  const VertexId sources[] = {source};
  BatchBfsResult lanes = run_lane_bfs(graph_, cluster_, options_, sources);
  BfsResult result;
  result.distances = std::move(lanes.distances[0]);
  if (options_.compute_parents) result.parents = std::move(lanes.parents[0]);
  result.metrics = std::move(lanes.metrics);
  return result;
}

}  // namespace dsbfs::core
