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
/// 64} chosen from the batch size), the delegate mask reduction ORs d*W/8
/// bytes per round instead of d/8, and the normal exchange ships (id,
/// lane-word) updates through the same uniquify/codec machinery the
/// value algorithms use (UpdateCombine::kOr, W/8-byte values on the wire,
/// bare 4-byte ids at W = 1).  The payoff is amortization: one sweep of
/// every adjacency row, one reduction and one exchange serve all W sources,
/// so the modeled cost per source drops well below a single-source run --
/// the serving-throughput lever for landmark/sketch workloads
/// (examples/landmark_distance_index.cpp).
///
/// Traversal direction: forced push by default, with an opt-in hybrid
/// (BatchBfsOptions::direction) that generalizes the paper's
/// direction-optimized traversal to the *union* frontier.  Per-lane
/// direction decisions would disagree between lanes sharing one sweep, so
/// the decision is taken once per switchable kernel for all lanes together:
/// the forward estimate is the union frontier's edge mass (every row is
/// swept once regardless of how many lanes ride it), and the backward
/// estimate scales the remaining-unvisited pull mass by the live-lane
/// population (core::lane_backward_workload) -- a pull candidate early-exits
/// per lane, so the expected scan grows only harmonically in the number of
/// live lanes.  At W = 1 either mode is the corresponding DistributedBfs
/// bit for bit: same iteration count, same per-round direction decisions,
/// same control words, same wire bytes (tests assert this).
namespace dsbfs::core {

struct BatchBfsOptions {
  /// Overlap (delegate-mask reduction concurrent with the lane-update
  /// exchange), routing, resilience, and uniquify: OR-coalesce outbound
  /// (id, lane-word) updates per bin before the send (the lane analogue of
  /// the id exchange's U option); bit-exact, strictly fewer records
  /// whenever several frontier vertices push the same destination.
  engine::RunOptions run{};
  /// Wire encoding of the (id, lane-word) payload.
  comm::WireCodec codec = comm::WireCodec::kRaw;
  /// Blocking vs non-blocking delegate-mask reduction (Section VI-B).
  comm::ReduceMode reduce_mode = comm::ReduceMode::kBlocking;
  /// Traversal direction policy.  kForcedPush keeps the MS-BFS default;
  /// kHybrid enables union-frontier bottom-up rounds (see the header
  /// comment) decided per iteration per switchable kernel.
  TraversalDirection direction = TraversalDirection::kForcedPush;
  /// Hysteresis factor seeds per switchable kernel (docs/TUNING.md); only
  /// consulted with direction == kHybrid.
  DirectionFactors dd_factors = kBfsDirectionSeeds.dd;
  DirectionFactors dn_factors = kBfsDirectionSeeds.dn;
  DirectionFactors nd_factors = kBfsDirectionSeeds.nd;
  /// Online factor self-tuning (core::DirectionController), seeded from the
  /// static factors above; only consulted with direction == kHybrid.
  bool adaptive_direction = true;
  /// Also produce one Graph500 BFS tree per lane (BatchBfsResult::parents).
  bool compute_parents = false;
};

struct BatchBfsResult {
  /// distances[lane][v]: hop distance of vertex v from sources[lane]
  /// (kUnvisited when unreachable) -- per lane, exactly the single-source
  /// result for that source.
  std::vector<std::vector<Depth>> distances;
  /// parents[lane][v] (only with BatchBfsOptions::compute_parents): a
  /// Graph500 BFS tree per lane, same conventions as BfsResult::parents.
  std::vector<std::vector<VertexId>> parents;
  /// Shared-run metrics: one iteration history covers every lane (the
  /// whole point).  RunMetrics::lane_bits is the lane width W the run used
  /// (the smallest of {1, 8, 32, 64} holding the batch); it and the
  /// per-iteration lane-bit occupancy columns say how many sources each
  /// sweep advanced.
  RunMetrics metrics;
};

class DistributedBatchBfs {
 public:
  /// `graph` and `cluster` must outlive the DistributedBatchBfs and share
  /// spec.
  DistributedBatchBfs(const graph::DistributedGraph& graph,
                      sim::Cluster& cluster, BatchBfsOptions options = {});

  const BatchBfsOptions& options() const noexcept { return options_; }

  /// One batched BFS from 1..64 sources (lane l = sources[l]; duplicates
  /// allowed).  Collective over all simulated GPUs; callable repeatedly.
  BatchBfsResult run(std::span<const VertexId> sources);

  /// Pick the k-th deterministic pseudo-random source with at least one
  /// out-edge (identical to DistributedBfs::sample_source).
  VertexId sample_source(std::uint64_t k) const;

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  BatchBfsOptions options_;
};

}  // namespace dsbfs::core
