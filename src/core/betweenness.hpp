#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

/// Distributed Brandes betweenness centrality over up to 64 sources -- the
/// first workload composing *two* engine runs on one graph:
///
///   1. **Forward**: a multi-source BFS lane sweep (one lane per source)
///      that records per-lane hop depths and shortest-path counts (sigma).
///      Sigma rides the discovery wire: one (slot, sigma contribution)
///      record per cross-GPU edge, sum-coalesced
///      (comm::UpdateCombine::kLaneSum), so receiving a record *is* the
///      discovery and no second exchange per iteration is needed.  Delegate
///      sigma partials reduce with one d x W-word sum collective per level.
///   2. **Reverse**: the dependency pass walks levels D -> 1.  A successor
///      `w` at depth d contributes sigma(v) * coef(w) to every predecessor
///      `v`, with coef(w) = (1 + delta(w)) / sigma(w).  Contributions
///      travel as (target slot, w_global, coefficient) triples; every
///      target folds its triples sorted ascending by w_global -- the
///      canonical order baseline::serial_brandes_pass uses -- so the
///      non-associative double additions happen in the identical sequence
///      and the scores match the serial oracle bit for bit.  Triples aimed
///      at delegates are allgathered so every GPU folds the identical
///      sorted set and the replicated delegate deltas stay in lockstep.
///
/// bc[v] = sum over lanes (in source order) of delta_lane(v), skipping
/// v == source -- the exact accumulation of baseline::serial_brandes.
/// Both runs carry the engine's checkpoint/rollback resilience; a
/// mid-flight GPU failure replays from the last epoch snapshot and
/// converges to the same bits (tests/test_recovery.cpp chaos case).
namespace dsbfs::core {

struct BetweennessOptions {
  /// Overlap (reduce || exchange) and the fault schedule and checkpoint
  /// cadence apply to both engine runs.  Routing applies to the forward
  /// sigma records, and uniquify sum-coalesces duplicate (slot, sigma)
  /// records per bin before the send.
  engine::RunOptions run{.uniquify = true};
};

struct BetweennessResult {
  /// bc[v]: betweenness score accumulated over the requested sources
  /// (unnormalized, directed-contribution convention of Brandes' algorithm
  /// on an undirected graph -- identical to baseline::serial_brandes).
  std::vector<double> scores;
  /// Global depth of the deepest reachable (vertex, lane) slot.
  Depth max_depth = 0;
  /// One report per engine run.  Forward: update bytes are the sigma
  /// records, reduce bytes the delegate sigma reductions.  Reverse: update
  /// bytes are the dependency triples; it reduces no delegate payload.
  ValueRunReport forward;
  ValueRunReport reverse;
  double measured_ms = 0;  // both runs
  /// Two-run composition: the forward and reverse replays stitched end to
  /// end (sim::compose_breakdowns).
  sim::ModeledBreakdown modeled;
  double modeled_ms = 0;
};

class BetweennessCentrality {
 public:
  /// `graph` and `cluster` must outlive the BetweennessCentrality and share
  /// spec.
  BetweennessCentrality(const graph::DistributedGraph& graph,
                        sim::Cluster& cluster, BetweennessOptions options = {});

  const BetweennessOptions& options() const noexcept { return options_; }

  /// Brandes scores over `sources` (1 to 64; lane `i` sweeps from
  /// sources[i]).  Collective over all simulated GPUs; callable repeatedly.
  BetweennessResult run(const std::vector<VertexId>& sources);

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  BetweennessOptions options_;
};

}  // namespace dsbfs::core
