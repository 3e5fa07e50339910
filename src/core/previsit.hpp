#pragma once

#include "core/config.hpp"
#include "core/frontier.hpp"

/// Previsit kernels (paper Section IV, Fig. 3).
///
/// Each iteration begins with one previsit per stream:
///   * delegate previsit -- turns the newly visited delegate mask into a
///     work queue (dropping delegates without local out-edges), computes
///     the forward workloads FV for the dd and dn visits, and the backward
///     estimates BV from the unvisited-source pools;
///   * normal previsit -- merges locally discovered vertices with exchange
///     arrivals (deduplicating against the visited mask), forms the normal
///     frontier in ascending order, and computes FV/BV for the nd visit.
/// Both also fix the traversal direction for their stream's visit kernels.
namespace dsbfs::core {

/// Delegate-stream previsit.  Reads `delegate_new`; fills `delegate_queue`,
/// fv_dd/bv_dd, fv_dn/bv_dn and updates dir_dd / dir_dn.
void delegate_previsit(GpuState& s, const BfsOptions& options);

/// Normal-stream previsit.  Merges `next_local` + `received` into an
/// ascending, duplicate-free `frontier` (through the `frontier_normal`
/// bitmap), assigns newly visited arrivals the current depth, adds the
/// frontier to `seen_normal`, updates the unvisited pools, computes
/// fv_nd/bv_nd and updates dir_nd.
void normal_previsit(GpuState& s, const BfsOptions& options);

// ---- lane-generalized previsits (batched MS-BFS traversals) --------------
// The same two queue-formation steps over LaneState: queue membership is
// "any lane active", the per-item lane word rides along, and the frontier
// lane-bit counters feed the batch occupancy metrics.  Under
// BatchBfsOptions::direction == kHybrid they also fix the direction for the
// union frontier: FV sums ride the queue scan that runs anyway (so the
// replay charges no extra estimation launches), BV comes from the all-lane
// unvisited pools scaled by the live-lane population
// (lane_backward_workload), and the optional DirectionController re-seeds
// the factors each iteration.

/// Delegate-stream lane previsit.  Reads `delegate_new` lane words; fills
/// `delegate_queue` (items with local out-edges), the delegate lane-bit /
/// live-lane counters, and -- when direction-optimized -- fv/bv for the dd
/// and dn visits plus their DirectionState updates.
void delegate_previsit_lanes(LaneState& s);

/// Normal-stream lane previsit.  Merges the dn visit's `next_local` /
/// `next_normal` discoveries and the exchange's `received` (id, lane-word)
/// updates into `frontier` / `frontier_normal`, then stamps every frontier
/// lane word into LaneState::depth_planes at the current depth (the only
/// normal-depth write of a traversal).  Maintains the unvisited
/// nd-source pool (first touch in any lane) and, when direction-optimized,
/// computes fv_nd/bv_nd and updates dir_nd.
void normal_previsit_lanes(LaneState& s);

}  // namespace dsbfs::core
