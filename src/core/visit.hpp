#pragma once

#include "core/frontier.hpp"

/// Visit kernels (paper Section IV).
///
/// Four kernels per iteration, one per subgraph, templates on the lane
/// width W (== LaneState::lane_bits(); W = 1 is the single-source BFS).
/// Each frontier entry carries a lane word and one row traversal advances
/// every lane at once (visitNext |= visit & ~seen, per neighbor).  dd/dn/nd
/// run forward-push or backward-pull according to the per-subgraph
/// DirectionState fixed by the previsit; nn is always forward (Section
/// IV-B).  Forward pushes scan the full neighbor list of each frontier
/// vertex.  Backward pulls sweep the reverse subgraph once for the whole
/// union frontier: each candidate clears its still-unvisited lane word
/// (`miss`) against neighbors' visited words and early-exits when every
/// live lane has a parent.
///
/// Write discipline (safe under delegate/normal stream concurrency): one
/// writer per mask per phase, so every write is a plain load-OR-store (see
/// LaneState):
///   * dd ORs into `delegate_out_dd` (delegate stream), nd into
///     `delegate_out_nd` (normal stream);
///   * dn claims lanes in `next_normal` and appends first-touched vertices
///     to `next_local`; it writes no depth (the next normal previsit stamps
///     the claimed lanes at the depth they enter the frontier);
///   * nn writes only this GPU's outbound bins, routed by the ghost table,
///     and its `pending` and `sent` masks;
///   * all reads of visited state go to the stable snapshots
///     (`delegate_visited`, `seen_normal` == {distance <= depth}).
namespace dsbfs::core {

/// delegate -> delegate, lane words into `delegate_out_dd`.  Uses
/// merge-based load balancing on real GPUs (modeled by
/// sim::KernelClass::kForwardMerge); the backward pull runs over dd itself
/// (locally symmetric).
template <int W>
void visit_dd_lanes(LaneState& s);

/// delegate -> normal: claims (vertex, lane) pairs in `next_normal`,
/// records per-lane parents (when on) and appends first-touched vertices to
/// `next_local`.  The backward pull runs over the nd subgraph from its
/// source list (the reverse graph, Section IV-B).
template <int W>
void visit_dn_lanes(LaneState& s);

/// normal -> delegate, lane words into `delegate_out_nd`; the backward pull
/// runs over the dn subgraph from its source mask.
template <int W>
void visit_nd_lanes(LaneState& s);

/// normal -> normal: ORs each edge's frontier lanes into its ghost's
/// `pending` word, then bins each ghost's `pending & ~sent` lanes (each
/// (target, lane) once per run) owner by owner in ascending local id,
/// marks them in `sent` and clears `pending`.  One record per target per
/// iteration, counted in `bins_total`: bare 32-bit destination-local ids
/// at W = 1 (`id_bins`), (id, lane word) updates for wider lanes (`bins`).
template <int W>
void visit_nn_lanes(LaneState& s);

}  // namespace dsbfs::core
