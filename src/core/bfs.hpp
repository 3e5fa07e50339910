#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

/// Distributed direction-optimized BFS -- the paper's primary contribution.
///
/// Executes a level-synchronous BFS over a degree-separated, Algorithm-1
/// distributed graph on a simulated GPU cluster.  Each simulated GPU runs on
/// its own thread with two streams (delegate + normal, Fig. 3); delegate
/// visited state propagates by two-phase mask reduction and normal vertices
/// by binned point-to-point exchange (Fig. 4).  Outputs hop distances (as
/// the paper's implementation does) plus the full measured/modeled metrics.
/// The run is the one-lane instance of the BFS lane engine
/// (core/batch_bfs.hpp run_lane_bfs).
namespace dsbfs::core {

/// The k-th deterministic pseudo-random vertex with at least one out-edge
/// (Graph500-style source sampling).  Shared by every traversal facade so
/// single-source and batched runs draw from the identical pool.  Throws
/// std::invalid_argument when no vertex has an out-edge (or n == 0).
VertexId sample_traversal_source(const graph::DistributedGraph& graph,
                                 std::uint64_t k);

struct BfsResult {
  std::vector<Depth> distances;  // indexed by global vertex id
  /// Graph500 BFS tree (only when BfsOptions::compute_parents):
  /// parents[v] is a neighbor of v one level closer to the source,
  /// parents[source] == source, kInvalidVertex for unreached vertices.
  std::vector<VertexId> parents;
  RunMetrics metrics;
};

class DistributedBfs {
 public:
  /// `graph` and `cluster` must outlive the DistributedBfs and share spec.
  DistributedBfs(const graph::DistributedGraph& graph, sim::Cluster& cluster,
                 BfsOptions options = {});

  const BfsOptions& options() const noexcept { return options_; }

  /// One full BFS from `source`.  Collective over all simulated GPUs;
  /// callable repeatedly (per-run state is rebuilt).
  BfsResult run(VertexId source);

  /// Pick the k-th deterministic pseudo-random source with at least one
  /// out-edge (Graph500-style source sampling).  Throws
  /// std::invalid_argument when the graph has no edge.
  VertexId sample_source(std::uint64_t k) const;

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  BfsOptions options_;
};

}  // namespace dsbfs::core
