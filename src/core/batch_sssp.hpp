#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

/// Distributed delta-stepping (Meyer & Sanders) for up to 64 sources in
/// lockstep on one engine run, the value-lane analogue of
/// core::DistributedBatchBfs.  The single-source facade
/// core::DistributedDeltaSssp is this engine's W = 1 instance at 64-bit
/// values.
///
/// ## Mapping onto the iterative engine
///
/// Bucket `b` (tentative distances in [b*delta, (b+1)*delta)) is processed
/// as a loop of light-edge rounds until no slot remains in `b`, then one
/// heavy-edge round over everything settled in `b`.  Each engine iteration
/// is one such round:
///
///   * the previsit agrees cluster-wide on what the round is -- a
///     next-bucket MIN allreduce when the previous bucket closed, or a
///     light-work SUM allreduce that decides "another light sub-round" vs
///     "the heavy round" (`GpuIterationCounters::bucket_coordination`; the
///     perf model charges it as a small collective gating the round);
///   * the visit relaxes the phase's edge class of the round's active set,
///     reading a precomputed per-subgraph light/heavy `core::EdgePartition`
///     so light rounds touch light edge mass only;
///   * `reduce` / `exchange` / termination are inherited from the engine:
///     delegate distance candidates MIN-reduce on the delegate stream
///     concurrently with the (id, lane word) update exchange on the normal
///     stream, min-coalesced per bin and optionally compressed -- compressed
///     values ride the wire biased by the open bucket's base distance.
///
/// Slots wait in per-GPU `core::BucketState` queues (delegate buckets are
/// replicated and stay identical on every GPU because delegate distances
/// come out of the global reduction).
///
/// ## Lane-valued frontier substrate
///
/// Each vertex carries W packed tentative distances in the
/// util::LaneValueSlab word layout (`value_bits` wide each; the all-ones
/// value is that width's infinity).  One (vertex, lane) pair is a *slot*;
/// the bucket queues are keyed by slot, so every lane rides the identical
/// lazy bucket structure.  The light/heavy core::EdgePartition split is
/// computed once per run and shared by all lanes -- edge weights do not
/// depend on the source.
///
/// ## What batching amortizes
///
/// The relax kernels group the round's active slots by vertex and sweep
/// each active vertex's edge list *once*, serving every active lane of that
/// vertex from the same weight lookup: the modeled edge traffic per round
/// is per active *vertex*, not per active slot.  The wire carries one
/// record per (destination, lane group) -- W * value_bits bits of payload
/// per improved vertex -- min-coalesced per sub-lane
/// (comm::UpdateCombine::kLaneMin), and the delegate candidate reduction
/// moves d * groups_per_item packed words per round instead of W separate
/// d-word reductions.  bench_ablation_batch_sssp measures the resulting
/// modeled speedup over W sequential single-source runs.
///
/// ## Union bucket schedule
///
/// The per-round agreement collective is shared too: the cluster agrees on
/// the minimum bucket over *all* slots of *all* lanes (one MIN allreduce
/// per bucket open, one SUM per light sub-round, independent of W).  A
/// lane with no work in the agreed bucket simply contributes no fresh
/// slots; since the global bucket sequence is monotone and every lane's own
/// buckets appear in it, each lane settles exactly as it would under its
/// private schedule, and converged per-lane distances are bit-identical to
/// baseline::serial_delta_sssp per source.  At W = 1 with value_bits = 64
/// every record is a bare (id, distance) pair and the delegate reduction is
/// a d-word MIN.
namespace dsbfs::core {

struct BatchSsspOptions {
  /// Bucket width (see DeltaSsspOptions::delta).
  std::uint64_t delta = 8;
  /// Hashed-weight fallback range [1, max_weight]; ignored when the graph
  /// stores real weights.
  std::uint32_t max_weight = 15;
  /// Packed distance width in bits, one of {8, 16, 32, 64}.  Every final
  /// distance must be strictly below the all-ones sentinel of this width or
  /// the run throws std::overflow_error; util::value_width_for picks the
  /// smallest safe width from a distance bound.  64 at W = 1 is the
  /// single-source run (DistributedDeltaSssp).
  int value_bits = 32;
  /// Overlap (delegate candidate reduction concurrent with the lane-word
  /// update exchange), routing (bit-exact across all three: kLaneMin
  /// re-merges at intermediate hops), resilience, and uniquify:
  /// min-coalesce outbound lane-word records per bin before the send.  The
  /// varint codecs ship the (id, lane word) values biased by the open
  /// bucket's base distance replicated into every lane position
  /// (util::LaneValueSlab::replicate); bit-exact.
  engine::RunOptions run{.uniquify = true};
};

/// Per-lane distances plus the run's report: buckets are the union buckets
/// of the monotone global schedule, relaxations count edge sweeps per
/// vertex (not per lane), and the bytes are lane-word records and
/// reductions.
struct BatchSsspResult : ValueRunReport {
  /// distances[lane][v] = weighted distance from sources[lane];
  /// kInfiniteDistance for unreachable vertices (the packed sentinel is
  /// widened on gather).
  std::vector<std::vector<std::uint64_t>> distances;
};

class DistributedBatchSssp {
 public:
  /// `graph` and `cluster` must outlive the DistributedBatchSssp and share
  /// spec.  Throws std::invalid_argument on delta == 0, max_weight == 0 or
  /// value_bits not in {8, 16, 32, 64}.
  DistributedBatchSssp(const graph::DistributedGraph& graph,
                       sim::Cluster& cluster, BatchSsspOptions options = {});

  const BatchSsspOptions& options() const noexcept { return options_; }

  /// One batched delta-stepping run over `sources` (1 to 64 of them; lane
  /// `i` computes distances from sources[i]).  Collective over all
  /// simulated GPUs; callable repeatedly.  Throws std::overflow_error if
  /// any tentative distance reaches the value_bits sentinel.
  BatchSsspResult run(const std::vector<VertexId>& sources);

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  BatchSsspOptions options_;
};

}  // namespace dsbfs::core
