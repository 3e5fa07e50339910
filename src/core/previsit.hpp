#pragma once

#include "core/frontier.hpp"

/// Previsit kernels (paper Section IV, Fig. 3).
///
/// Each iteration begins with one previsit per stream:
///   * delegate previsit -- turns the newly visited delegate lanes into a
///     work queue (dropping delegates without local out-edges);
///   * normal previsit -- merges the dn visit's claims with the exchange
///     arrivals (deduplicating against the visited lanes), forms the normal
///     frontier and stamps its lanes into the depth planes.
/// Queue membership is "any lane active", the per-item lane word rides
/// along, and the lane-bit counters feed the batch occupancy metrics.
/// Under BfsOptions::direction_optimized both also fix their stream's
/// traversal direction for the union frontier: FV sums ride the queue scans
/// that run anyway (so the replay charges no extra estimation launches),
/// BV comes from the all-lane unvisited pools scaled by the live-lane
/// population and capped at the pools' edge mass (lane_backward_workload,
/// the single-source estimate at W = 1), and the optional
/// DirectionController re-seeds the factors each iteration.
namespace dsbfs::core {

/// Delegate-stream previsit.  Reads `delegate_new` lane words; fills
/// `delegate_queue` (items with local out-edges), the delegate lane-bit /
/// live-lane counters, and -- when direction-optimized -- fv/bv for the dd
/// and dn visits plus their DirectionState updates.
void delegate_previsit_lanes(LaneState& s);

/// Normal-stream previsit at lane width W (== s.lane_bits()).  Merges the
/// dn visit's `next_local` / `next_normal` discoveries and the exchange
/// arrivals into `frontier` / `frontier_normal`, then stamps every frontier
/// lane word into LaneState::depth_planes at the current depth (the only
/// normal-depth write of a traversal).  At W = 1 the frontier comes out
/// ascending, extracted from the bitmap, and the bitmap is left clean.
/// Maintains the unvisited nd-source pool (first touch in any lane) and,
/// when direction-optimized, computes fv_nd/bv_nd and updates dir_nd.
template <int W>
void normal_previsit_lanes(LaneState& s);

}  // namespace dsbfs::core
