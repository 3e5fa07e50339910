#pragma once

#include "core/frontier.hpp"
#include "sim/cluster.hpp"

/// Visit kernels (paper Section IV).
///
/// Four kernels per iteration, one per subgraph.  dd/dn/nd run forward-push
/// or backward-pull according to the per-subgraph DirectionState fixed by
/// the previsit; nn is always forward (Section IV-B).  Forward pushes scan
/// the full neighbor list of each frontier vertex; backward pulls scan an
/// unvisited vertex's parent list only until the first visited parent.
///
/// Write discipline (safe under delegate/normal stream concurrency): one
/// writer per mask per phase, so every write is a plain store (see
/// GpuState):
///   * dd writes only `delegate_out_dd` (delegate stream), nd only
///     `delegate_out_nd` (normal stream);
///   * dn claims a vertex with a load-and-store of `level_normal` (depth+1)
///     and appends it to `next_local`; it is the only visit that touches
///     `level_normal`;
///   * nn writes only this GPU's outbound bins, routed by sim::VertexRouter,
///     and its `sent` mask;
///   * all reads of visited state go to stable snapshots (delegate_visited,
///     seen_normal == {level <= depth}).
namespace dsbfs::core {

/// delegate -> delegate.  Uses merge-based load balancing on real GPUs
/// (modeled by sim::KernelClass::kForwardMerge).
void visit_dd(GpuState& s);

/// delegate -> normal; backward pull runs over the nd subgraph from its
/// source list (the reverse graph, Section IV-B).
void visit_dn(GpuState& s);

/// normal -> delegate; backward pull runs over the dn subgraph from its
/// source mask.
void visit_nd(GpuState& s);

/// normal -> normal: forward only; fills per-destination-GPU bins with
/// 32-bit destination-local ids, each target once per run (`sent`).  The
/// frontier is ascending, so the rows are walked in order and every bin
/// comes out sorted by source.
void visit_nn(GpuState& s, const sim::ClusterSpec& spec);

// ---- lane-generalized visits (batched MS-BFS traversals) -----------------
// Same four kernels over LaneState: each frontier entry carries a lane word
// and one row traversal advances every lane at once (visitNext |= visit &
// ~seen, per neighbor).  dd/dn/nd honor their DirectionState exactly like
// the single-source kernels: backward pulls sweep the reverse subgraph once
// for the whole union frontier, each candidate clearing its still-unvisited
// lane word (`miss`) against neighbors' visited words and early-exiting
// when every live lane has a parent.  nn is always forward.  The write
// discipline becomes one writer per mask per phase (see LaneState): dd ORs
// into `delegate_out_dd` on the delegate stream, nd into `delegate_out_nd`
// on the normal stream, and dn claims lanes in `next_normal` (plus the
// single-writer next_local) in place of the level claim -- all plain
// load-OR-stores, no atomic read-modify-write.

/// delegate -> delegate, lane words into `delegate_out_dd`; backward pull
/// runs over dd itself (locally symmetric).
void visit_dd_lanes(LaneState& s);

/// delegate -> normal: claims (vertex, lane) pairs in `next_normal`,
/// records per-lane parents (when on) and appends first-touched vertices to
/// `next_local`.  It writes no depth: the next normal previsit stamps the
/// claimed lanes at the depth they enter the frontier.  Backward pull runs
/// over the nd subgraph from its source list.
void visit_dn_lanes(LaneState& s);

/// normal -> delegate, lane words into `delegate_out_nd`; backward pull
/// runs over the dn subgraph from its source mask.
void visit_nd_lanes(LaneState& s);

/// normal -> normal: fills per-destination-GPU bins with (32-bit
/// destination-local id, lane word) updates, each (target, lane) once per
/// run (`sent`): the word carries the frontier lanes not shipped before.
void visit_nn_lanes(LaneState& s, const sim::ClusterSpec& spec);

}  // namespace dsbfs::core
