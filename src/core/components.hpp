#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "sim/perf_model.hpp"
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
  /// exchange), routing, resilience, and uniquify: min-coalesce outbound
  /// label updates per bin before the send; bit-exact, strictly fewer
  /// bytes.
  engine::RunOptions run{.uniquify = true};
  /// Wire encoding of the (id, label) payload.
  comm::WireCodec codec = comm::WireCodec::kRaw;
};

struct CcResult {
  /// labels[v] = smallest vertex id in v's connected component.
  std::vector<VertexId> labels;
  int iterations = 0;
  std::uint64_t num_components = 0;  // incl. isolated vertices
  double measured_ms = 0;
  double modeled_ms = 0;
  sim::ModeledBreakdown modeled;
  std::uint64_t update_bytes_remote = 0;  // normal label traffic, cross rank
  std::uint64_t reduce_bytes = 0;         // delegate label reductions
  /// Fault log, checkpoint and rollback accounting of the run.
  sim::FaultReport fault;
  sim::RunCounters counters;  // per-iteration trace
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
