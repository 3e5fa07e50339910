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

/// What every facade result carries about one engine run: the host wall
/// clock, the model replay of the executed counter rows, the fault log and
/// the rows themselves.  Built once per run by assemble_metrics (BFS family)
/// or assemble_value_report (value family) through one shared builder.
struct RunReport {
  double measured_ms = 0;  // wall clock of this process (all GPUs threaded)
  sim::ModeledBreakdown modeled;  // replayed on the cluster models
  double modeled_ms = 0;
  /// Fault log, checkpoint and rollback accounting (empty on a clean,
  /// checkpoint-free run).  Its retries / corrupt_bins / recovery_ns are the
  /// sums of the same fields over the counter rows and the engine's
  /// post-loop rows (engine::EngineRun::post_loop, which the replay does
  /// not charge).
  sim::FaultReport fault;
  sim::RunCounters counters;  // full trace for re-modeling
};

/// The BFS family's report (single-source, batched and serving runs).
struct RunMetrics : RunReport {
  int iterations = 0;                  // S: executed counter rows
  int delegate_reduce_iterations = 0;  // S' (paper: about half of S on RMAT)
  /// Lane width W of the run (1 = single-source; batched runs reduce
  /// d*W/8-byte masks and ship (id, W/8-byte lane word) updates).
  int lane_bits = 1;

  std::uint64_t edges_traversed = 0;   // workload m' (paper Section IV-B)
  std::uint64_t exchange_remote_bytes = 0;
  std::uint64_t exchange_local_bytes = 0;
  std::uint64_t mask_reduce_bytes = 0;  // modeled volume: 2 * d/8 * prank * S'

  double measured_gteps = 0;
  double modeled_gteps = 0;

  std::uint64_t teps_edges = 0;  // m/2, the TEPS denominator

  std::vector<IterationStats> per_iteration;
};

/// Builds the BFS report from the per-GPU iteration histories and the run's
/// fault log.  `lane_bits` scales the delegate-mask payload (d*W/8 bytes per
/// reduction) for batched traversals; 1 reproduces the historic
/// single-source accounting exactly.
RunMetrics assemble_metrics(const graph::DistributedGraph& graph, bool overlap,
                            comm::ReduceMode reduce_mode,
                            std::vector<std::vector<sim::GpuIterationCounters>>&& histories,
                            double measured_ms, sim::FaultReport fault,
                            int lane_bits = 1);

/// The value family's report (CC, PageRank, SSSP, delta-SSSP, batched SSSP
/// and each betweenness pass): the delegate payload is d x 8 bytes of
/// *values* per reduction instead of the BFS d/8-byte mask.
struct ValueRunReport : RunReport {
  /// Logical rounds (EngineRun::iterations): rows replayed after a rollback
  /// are not counted again, unlike RunMetrics::iterations.
  int iterations = 0;
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
};

/// Builds the value report of one engine run (`iterations` is its logical
/// round count).  Reduce bytes follow the executed row count.
/// `delegate_words_per_item` scales the delegate reduction payload: 1 is the
/// historic d x 8-byte value vector; lane-valued algorithms reduce
/// groups_per_item() packed words per delegate (d x G x 8 bytes).
ValueRunReport assemble_value_report(
    const graph::DistributedGraph& graph, int iterations,
    std::vector<std::vector<sim::GpuIterationCounters>>&& histories,
    double measured_ms, sim::FaultReport fault, bool overlap,
    std::uint64_t delegate_words_per_item = 1);

}  // namespace dsbfs::core
