#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

/// Connected components on the degree-separated substrate.
///
/// The paper's closing discussion (Section VI-D) argues the computation and
/// communication models generalize beyond BFS: delegates then carry *values*
/// (not one visited bit) combined by global reductions, and normal vertices
/// exchange (id, value) updates instead of bare ids.  This module is that
/// generalization instantiated for min-label propagation:
///   * every vertex starts with its own id as label;
///   * per iteration, active vertices push their label along all four
///     subgraphs; delegate labels are min-reduced globally (d x 8 bytes --
///     the "more bits of state for delegates" cost), normal updates travel
///     through the update exchange;
///   * converged when no label changes anywhere.
namespace dsbfs::core {

struct CcOptions {
  /// Overlap (delegate label min-reduction concurrent with the normal label
  /// exchange), the codec of the (id, label) payload, routing, resilience,
  /// and uniquify: min-coalesce outbound label updates per bin before the
  /// send; bit-exact, strictly fewer bytes.
  engine::RunOptions run{.uniquify = true};
};

/// The labeling plus the run's ValueRunReport (update_bytes_remote is the
/// normal label traffic, reduce_bytes the delegate label reductions).
struct CcResult : ValueRunReport {
  /// labels[v] = smallest vertex id in v's connected component.
  std::vector<VertexId> labels;
  std::uint64_t num_components = 0;  // incl. isolated vertices
};

class ConnectedComponents {
 public:
  ConnectedComponents(const graph::DistributedGraph& graph,
                      sim::Cluster& cluster, CcOptions options = {});

  /// Collective full-graph component labeling.
  CcResult run();

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  CcOptions options_;
};

}  // namespace dsbfs::core
