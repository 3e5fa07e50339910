#pragma once

#include <cstdint>

#include "comm/exchange.hpp"
#include "comm/mask_reduce.hpp"
#include "core/direction.hpp"
#include "engine/iterative_engine.hpp"

/// Run-time options of the distributed (DO)BFS (paper Section VI-B), one
/// set for both BFS facades: DistributedBfs (one source) and
/// DistributedBatchBfs (1..64 sources as lanes).  The knobs every facade
/// shares -- overlap, the exchange merge, codec, routing and resilience --
/// live in engine::RunOptions, which each facade's options hold as `run`.
/// DirectionFactors and the tuned per-kernel seed tables live in
/// core/direction.hpp (the single source of truth shared with SSSP).
namespace dsbfs::core {

struct BfsOptions {
  /// Direction optimization on dd / dn / nd visits (nn is always forward:
  /// the nn subgraph is not symmetric locally and has tiny in-degrees).
  /// With several lanes the decision is taken once per kernel for the
  /// union frontier (core/batch_bfs.hpp).  DistributedBfs defaults to it;
  /// DistributedBatchBfs defaults to forced push, the MS-BFS baseline.
  bool direction_optimized = true;

  /// Overlap, uniquify (U: deduplicate outbound ids, OR-merge outbound
  /// lane words), the codec of multi-lane (id, lane-word) records, routing
  /// and resilience.
  engine::RunOptions run{};

  /// Local all2all (L): gather same-column traffic inside the rank first,
  /// at every lane width.
  bool local_all2all = false;

  /// Blocking (BR, MPI_Allreduce) vs non-blocking (IR, MPI_Iallreduce)
  /// global delegate-mask reduction.  The run is the same either way; only
  /// the performance model (assemble_metrics) charges them differently
  /// (Section VI-B, Fig. 8).
  comm::ReduceMode reduce_mode = comm::ReduceMode::kBlocking;

  /// Online self-tuning of the direction factors (core::DirectionController,
  /// seeded from kBfsDirectionSeeds, the device model's pull/push kernel
  /// rate ratios; without it that table is used verbatim): realized
  /// push/pull round costs measured from the iteration counters rescale the
  /// switching thresholds as the run executes, so the installed factor is
  /// the realized pull/push cost ratio.  Until the observed edge mass rivals
  /// the controller's prior, decisions are exactly the static factors', so
  /// this is safe to leave on; turn it off to pin the static rate-ratio
  /// factors (docs/TUNING.md) for paper-figure reproduction.
  bool adaptive_direction = true;

  /// Also produce the Graph500 BFS tree per source (BfsResult::parents,
  /// BatchBfsResult::parents).  Parents of
  /// vertices visited through dd/dn/nd edges are recorded locally during
  /// traversal; delegates are resolved by one d-word min-reduction and nn
  /// destinations by one end-of-run parent exchange (Section VI-A3: "the
  /// cost of building such a tree should be low").
  bool compute_parents = false;
};

}  // namespace dsbfs::core
