#pragma once

#include <cstdint>
#include <vector>

#include "comm/mask_reduce.hpp"
#include "graph/builder.hpp"
#include "sim/perf_model.hpp"

/// Run-level measurements and models (what the benches report).
namespace dsbfs::core {

/// One row of the per-iteration trace.
struct IterationStats {
  std::uint64_t frontier_normals = 0;  // sum over GPUs
  std::uint64_t new_delegates = 0;     // delegates entering the queue
  std::uint64_t edges_traversed = 0;   // all visit kernels, all GPUs
  std::uint64_t exchanged_vertices = 0;
  /// Lane occupancy (batched traversals; 0 at lane width 1): lane bits the
  /// iteration's shared sweeps advanced, summed over GPUs (normals) and
  /// counted once (delegates, replicated).
  std::uint64_t frontier_lane_bits = 0;
  std::uint64_t new_delegate_lane_bits = 0;
  /// Union-frontier live-lane population: how many distinct lanes the
  /// iteration's shared sweeps carried (max over GPUs for normals, GPU 0's
  /// replicated value for delegates).  This is the L in the batched
  /// direction decisions' harmonic pull scaling (lane_backward_workload).
  std::uint64_t live_frontier_lanes = 0;
  std::uint64_t live_delegate_lanes = 0;
  bool delegate_reduce = false;
  bool dd_backward = false, dn_backward = false, nd_backward = false;
};

struct RunMetrics {
  int iterations = 0;                  // S
  int delegate_reduce_iterations = 0;  // S' (paper: about half of S on RMAT)
  /// Lane width W of the run (1 = single-source; batched runs reduce
  /// d*W/8-byte masks and ship (id, W/8-byte lane word) updates).
  int lane_bits = 1;

  std::uint64_t edges_traversed = 0;   // workload m' (paper Section IV-B)
  std::uint64_t exchange_remote_bytes = 0;
  std::uint64_t exchange_local_bytes = 0;
  std::uint64_t mask_reduce_bytes = 0;  // modeled volume: 2 * d/8 * prank * S'

  /// Hardened-wire recovery work, summed over GPUs and iterations (all zero
  /// on a clean transport).
  std::uint64_t retries = 0;
  std::uint64_t corrupt_bins = 0;
  std::uint64_t recovery_ns = 0;
  /// Fault log, checkpoint and rollback accounting of the run (facades copy
  /// it off the EngineRun; empty on a clean, checkpoint-free run).
  sim::FaultReport fault;

  double measured_ms = 0;   // wall clock of this process (all GPUs threaded)
  double measured_gteps = 0;

  sim::ModeledBreakdown modeled;  // replayed on the cluster models
  double modeled_ms = 0;
  double modeled_gteps = 0;

  std::uint64_t teps_edges = 0;  // m/2, the TEPS denominator

  std::vector<IterationStats> per_iteration;
  sim::RunCounters counters;  // full trace for re-modeling
};

/// Assemble metrics from the per-GPU iteration histories and replay them on
/// the default sim::PerfModel.  `lane_bits` scales the delegate-mask payload
/// (d*W/8 bytes per reduction) for batched traversals; 1 reproduces the
/// historic single-source accounting exactly.
RunMetrics assemble_metrics(const graph::DistributedGraph& graph, bool overlap,
                            comm::ReduceMode reduce_mode,
                            std::vector<std::vector<sim::GpuIterationCounters>>&& histories,
                            double measured_ms, int lane_bits = 1);

/// Host-side assembly shared by the value algorithms (CC, PageRank, SSSP):
/// the delegate payload is d x 8 bytes of *values* per reduction instead of
/// the BFS d/8-byte mask, the update exchange's remote bytes are summed,
/// and the counters are replayed on the default sim::PerfModel.  Hoisted
/// from the three `run()` facades that used to duplicate it line for line.
struct ValueAppMetrics {
  std::uint64_t update_bytes_remote = 0;  // cross-rank update-exchange bytes
  std::uint64_t reduce_bytes = 0;         // delegate value reductions
  /// Iterations in which any GPU ran a dd/dn/nd kernel backward -- the
  /// direction-optimized SSSP pull rounds (0 for CC/PageRank and for
  /// forced-push SSSP).
  int pull_iterations = 0;
  /// Bucketed-round aggregates (delta-stepping; all zero for the flat
  /// algorithms).  Phase flags are global, so they are read off GPU 0's
  /// rows; the relaxation split is summed over every GPU.
  std::uint64_t buckets_processed = 0;  // distinct buckets opened
  int light_iterations = 0;             // light sub-rounds
  int heavy_iterations = 0;             // heavy-edge rounds
  std::uint64_t light_relaxations = 0;  // light-edge relax attempts, all GPUs
  std::uint64_t heavy_relaxations = 0;
  /// Hardened-wire recovery work, summed over GPUs and iterations.
  std::uint64_t retries = 0;
  std::uint64_t corrupt_bins = 0;
  std::uint64_t recovery_ns = 0;
  /// Fault log, checkpoint and rollback accounting of the run.
  sim::FaultReport fault;
  sim::ModeledBreakdown modeled;
  double modeled_ms = 0;
  sim::RunCounters counters;  // full trace for re-modeling
};

/// Row count (and the reduce-bytes volume) derive from the history length,
/// which with checkpoint/rollback recovery includes replayed iterations --
/// the honest accounting of what the cluster actually executed.
/// `delegate_words_per_item` scales the delegate reduction payload: 1 is
/// the historic d x 8-byte value vector; lane-valued algorithms reduce
/// groups_per_item() packed words per delegate (d x G x 8 bytes).
ValueAppMetrics assemble_value_app_metrics(
    const graph::DistributedGraph& graph,
    const std::vector<std::vector<sim::GpuIterationCounters>>& histories,
    bool overlap, std::uint64_t delegate_words_per_item = 1);

}  // namespace dsbfs::core
