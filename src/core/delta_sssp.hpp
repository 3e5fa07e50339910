#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_sssp.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

/// Distributed delta-stepping SSSP (Meyer & Sanders) on the
/// degree-separated substrate -- the bucketed bridge between the paper's
/// frontier-based BFS and the label-correcting Bellman-Ford of core::sssp.
///
/// Delta-stepping partitions tentative distances into buckets of width
/// `delta` and edges into *light* (weight <= delta) and *heavy* (weight >
/// delta) classes; bucket `b` is processed as a loop of light-edge rounds
/// until no vertex remains in `b`, then one heavy-edge round over
/// everything settled in `b`.  A single-source run is the W = 1 instance of
/// the batched engine (core/batch_sssp.hpp, which documents the mapping onto
/// the iterative engine) at 64-bit values: every record is a bare
/// (id, distance) pair, and the delegate reduction is a d-word MIN.
///
/// Converged distances are the unique shortest paths: bit-identical to
/// `core::sssp`, to `baseline::serial_delta_sssp`, and to serial
/// Bellman-Ford for every delta.  `delta == kInfiniteDistance` degenerates
/// to a single bucket and no heavy edges, i.e. exactly the Bellman-Ford
/// round structure.
///
/// Weight sources follow core::sssp: stored per-edge arrays when the graph
/// `weighted()`, the hashed endpoint-pair fallback otherwise.  Relaxation
/// is always forward push -- bucketed frontiers are deliberately small, so
/// the dense-round regime that justifies SSSP's backward pull never forms.
namespace dsbfs::core {

struct DeltaSsspOptions {
  /// Bucket width.  Small deltas approximate Dijkstra (many cheap buckets,
  /// little wasted re-relaxation); large deltas approximate Bellman-Ford
  /// (few rounds, more re-relaxation).  `kInfiniteDistance` = one bucket =
  /// Bellman-Ford.  See docs/TUNING.md "Delta selection".
  std::uint64_t delta = 8;
  /// Hashed-weight fallback range [1, max_weight] (util::edge_weight);
  /// ignored when the graph stores real weights.
  std::uint32_t max_weight = 15;
  /// Overlap (delegate distance min-reduction concurrent with the
  /// tentative-distance exchange), routing, resilience, and uniquify:
  /// min-coalesce outbound distance candidates per bin before the send.
  /// Under kAdaptive the varint form ships each distance above its bin's
  /// minimum, which sits at or above the open bucket's base distance.
  engine::RunOptions run{.uniquify = true};
};

/// The distances plus the report of the W = 1 batched run it is.
/// `iterations` counts engine rounds: light sub-rounds + heavy rounds + the
/// final empty coordination round.  `buckets_processed` equals the number
/// of buckets holding at least one final distance; it is deterministic, so
/// it must match baseline::SerialDeltaStats::buckets_processed.
struct DeltaSsspResult : ValueRunReport {
  /// distances[v] = weighted distance from the source, kInfiniteDistance
  /// for unreachable vertices.
  std::vector<std::uint64_t> distances;
};

class DistributedDeltaSssp {
 public:
  /// `graph` and `cluster` must outlive the DistributedDeltaSssp and share
  /// spec.  Throws std::invalid_argument on delta == 0 or max_weight == 0.
  DistributedDeltaSssp(const graph::DistributedGraph& graph,
                       sim::Cluster& cluster, DeltaSsspOptions options = {});

  const DeltaSsspOptions& options() const noexcept { return options_; }

  /// One full delta-stepping SSSP from `source`.  Collective over all
  /// simulated GPUs; callable repeatedly (per-run state is rebuilt).
  DeltaSsspResult run(VertexId source);

 private:
  DeltaSsspOptions options_;
  DistributedBatchSssp batch_;  // the W = 1, 64-bit instance
};

}  // namespace dsbfs::core
