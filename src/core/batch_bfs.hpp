#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

/// Batched multi-source BFS (MS-BFS style) on the degree-separated
/// substrate -- the lane-generalized traversal the paper's Section VI-D
/// framework sketch leaves open.
///
/// One engine run advances up to 64 sources in lockstep: every vertex's
/// visited state is a W-bit lane word (util::LaneBitset, W in {1, 8, 32,
/// 64} chosen from the batch size), the delegate mask reduction
/// (comm::ValueReducer::Op::kOr over the mask's words) ORs d*W/8 bytes per
/// round instead of d/8, and the normal exchange ships (id,
/// lane-word) updates through the same uniquify/codec machinery the
/// value algorithms use (UpdateCombine::kOr, W/8-byte values on the wire);
/// at W = 1 it ships bare 4-byte ids through the id exchange.  The payoff
/// is amortization: one sweep of every adjacency row, one reduction and
/// one exchange serve all W sources, so the modeled cost per source drops
/// well below a single-source run --
/// the serving-throughput lever for landmark/sketch workloads
/// (examples/landmark_distance_index.cpp).  The same lane engine runs every
/// BFS: DistributedBfs is its one-lane instance (run_lane_bfs below).
///
/// Traversal direction: forced push by default, with an opt-in hybrid
/// (BfsOptions::direction_optimized) that generalizes the paper's
/// direction-optimized traversal to the *union* frontier.  Per-lane
/// direction decisions would disagree between lanes sharing one sweep, so
/// the decision is taken once per switchable kernel for all lanes together:
/// the forward estimate is the union frontier's edge mass (every row is
/// swept once regardless of how many lanes ride it), and the backward
/// estimate scales the remaining-unvisited pull mass by the live-lane
/// population (core::lane_backward_workload) -- a pull candidate early-exits
/// per lane, so the expected scan grows only harmonically in the number of
/// live lanes, up to the candidates' full rows.  At W = 1 the live-lane
/// population is 1, so either mode makes the single-source decisions.
namespace dsbfs::core {

struct BatchBfsResult {
  /// distances[lane][v]: hop distance of vertex v from sources[lane]
  /// (kUnvisited when unreachable) -- per lane, exactly the single-source
  /// result for that source.
  std::vector<std::vector<Depth>> distances;
  /// parents[lane][v] (only with BfsOptions::compute_parents): a
  /// Graph500 BFS tree per lane, same conventions as BfsResult::parents.
  std::vector<std::vector<VertexId>> parents;
  /// Shared-run metrics: one iteration history covers every lane (the
  /// whole point).  RunMetrics::lane_bits is the lane width W the run used
  /// (the smallest of {1, 8, 32, 64} holding the batch); it and the
  /// per-iteration lane-bit occupancy columns say how many sources each
  /// sweep advanced.
  RunMetrics metrics;
};

/// One engine run of the BFS pipeline over sources.size() lanes, W =
/// util::lane_width_for(sources.size()) -- the lane engine behind both BFS
/// facades (sources must hold 1..64 in-range vertices).
BatchBfsResult run_lane_bfs(const graph::DistributedGraph& graph,
                            sim::Cluster& cluster, const BfsOptions& options,
                            std::span<const VertexId> sources);

class DistributedBatchBfs {
 public:
  /// `graph` and `cluster` must outlive the DistributedBatchBfs and share
  /// spec.  The default options are forced push (see the header comment).
  DistributedBatchBfs(const graph::DistributedGraph& graph,
                      sim::Cluster& cluster,
                      BfsOptions options = {.direction_optimized = false});

  const BfsOptions& options() const noexcept { return options_; }

  /// One batched BFS from 1..64 sources (lane l = sources[l]; duplicates
  /// allowed).  Collective over all simulated GPUs; callable repeatedly.
  BatchBfsResult run(std::span<const VertexId> sources);

  /// Pick the k-th deterministic pseudo-random source with at least one
  /// out-edge (identical to DistributedBfs::sample_source).
  VertexId sample_source(std::uint64_t k) const;

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  BfsOptions options_;
};

}  // namespace dsbfs::core
