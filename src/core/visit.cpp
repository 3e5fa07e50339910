#include "core/visit.hpp"

#include <bit>

namespace dsbfs::core {

// Forward push: the "unvisited? claim" test is `word & ~visited_lanes`
// followed by a lane-word OR whose previous value identifies the freshly
// claimed lanes (MS-BFS's visitNext |= visit & ~seen).  Each mask a kernel
// ORs into has that kernel as its only writer (LaneState's single-writer
// rules), so the OR is a plain load-OR-store.  Backward pull reuses the
// same claim detection in reverse: an item unvisited in some live lanes
// (`miss = batch_mask & ~visited`) probes its in-edges and claims itself in
// every lane whose visited word intersects a neighbor's
// (`hit = miss & visited(neighbor)`), clearing hit lanes from `miss` and
// early-exiting once every live lane has found a parent -- one pull sweep
// serves all W sources.  An item is probed once per pull, so its claimed
// lanes (`unseen & ~miss`) are ORed into the out-mask once, after its
// scan.  The visited masks consumed are the iteration-stable snapshots
// (seen_normal / delegate_visited), so pulls never observe same-iteration
// discoveries.
//
// A pull is launched only when the frontier it could hit is non-empty: an
// empty delegate queue (or normal frontier) means nothing was newly
// visited last round, and every older (visited, unvisited) edge was
// already exploited by that round's kernel, so the host skips the launch
// exactly as the push path does.
//
// The kernels count work in locals and store the totals once: the two
// streams' counters share cache lines, and a per-edge store from each
// stream would bounce them between cores.

/// The lanes a pull serves.  A one-lane pull is a single-source run, whose
/// lane is live (the serving scheduler, whose lanes come and go, never
/// pulls), so at W = 1 the constant makes each probe a plain bit test.
template <int W>
std::uint64_t pull_lanes(const LaneState& s) {
  return W == 1 ? 1 : s.batch_mask;
}

template <int W>
void visit_dd_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.dd;
  k.backward = s.dir_dd.backward();
  if (s.delegate_queue.empty()) return;
  k.launched = true;

  std::uint64_t edges = 0, vertices = 0;
  if (k.backward) {
    // Pull over dd itself (locally symmetric): every delegate with dd edges
    // still unvisited in a live lane scans its row for visited parents.
    const LocalId d = g.num_delegates();
    for (LocalId t = 0; t < d; ++t) {
      if (!g.dd_source_mask().test(t)) continue;
      const std::uint64_t unseen =
          pull_lanes<W>(s) & ~s.delegate_visited.lanes<W>(t);
      if (unseen == 0) continue;
      ++vertices;
      std::uint64_t miss = unseen;
      for (const LocalId c : g.dd().row(t)) {
        ++edges;
        const std::uint64_t hit = miss & s.delegate_visited.lanes<W>(c);
        if (hit == 0) continue;
        if (s.record_parents) {
          // Record for every hit lane, not only freshly claimed ones: the
          // claim split between the delegate and normal streams is racy, so
          // the parent finalize's min over both streams' candidates
          // (keep_min_parent) must see every candidate to make the winner
          // schedule-independent.
          VertexId* slots = &s.parent_delegate_dd[s.slot(t, 0)];
          for (std::uint64_t b = hit; b != 0; b &= b - 1) {
            keep_min_parent(slots[std::countr_zero(b)], kParentDelegateTag | c);
          }
        }
        miss &= ~hit;
        if (W == 1 || miss == 0) break;
      }
      if (miss != unseen) s.delegate_out_dd.or_lanes<W>(t, unseen & ~miss);
    }
  } else {
    for (const LocalId t : s.delegate_queue) {
      const std::uint64_t f = s.delegate_new.lanes<W>(t);
      const auto row = g.dd().row(t);
      edges += row.size();
      for (const LocalId c : row) {
        const std::uint64_t rem = f & ~s.delegate_visited.lanes<W>(c);
        if (rem == 0) continue;
        s.delegate_out_dd.or_lanes<W>(c, rem);
        if (s.record_parents) {
          // Every candidate feeds the min (see the dd pull above).
          VertexId* slots = &s.parent_delegate_dd[s.slot(c, 0)];
          for (std::uint64_t b = rem; b != 0; b &= b - 1) {
            keep_min_parent(slots[std::countr_zero(b)],
                            kParentDelegateTag | t);
          }
        }
      }
    }
    vertices = s.delegate_queue.size();
  }
  k.edges = edges;
  k.vertices = vertices;
}

template <int W>
void visit_dn_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.dn;
  k.backward = s.dir_dn.backward();
  if (s.delegate_queue.empty()) return;
  k.launched = true;

  // Records parent delegate `t` for `lanes` of normal v (its first claim
  // of each lane).
  const auto record = [&s](LocalId v, std::uint64_t lanes, LocalId t) {
    for (std::uint64_t b = lanes; b != 0; b &= b - 1) {
      s.parent_normal[s.slot(v, std::countr_zero(b))] = kParentDelegateTag | t;
    }
  };

  std::uint64_t edges = 0, vertices = 0;
  if (k.backward) {
    // Pull over the nd subgraph (reverse of dn on this GPU): each normal
    // with delegate parents, unvisited in a live lane, scans them for
    // visited delegates and claims itself in the intersecting lanes.  Each
    // normal is probed once, so its claims are its first: one OR after the
    // scan.
    for (const LocalId v : g.nd_source_list()) {
      const std::uint64_t unseen =
          pull_lanes<W>(s) & ~s.seen_normal.lanes<W>(v);
      if (unseen == 0) continue;
      ++vertices;
      std::uint64_t miss = unseen;
      for (const LocalId c : g.nd().row(v)) {
        ++edges;
        const std::uint64_t hit = miss & s.delegate_visited.lanes<W>(c);
        if (hit == 0) continue;
        if (s.record_parents) record(v, hit, c);
        miss &= ~hit;
        if (W == 1 || miss == 0) break;
      }
      if (miss != unseen) {
        s.next_normal.or_lanes<W>(v, unseen & ~miss);
        s.next_local.push_back(v);
      }
    }
  } else {
    for (const LocalId t : s.delegate_queue) {
      const std::uint64_t f = s.delegate_new.lanes<W>(t);
      const auto row = g.dn().row(t);
      edges += row.size();
      for (const LocalId v : row) {
        const std::uint64_t rem = f & ~s.seen_normal.lanes<W>(v);
        if (rem == 0) continue;
        const std::uint64_t prev = s.next_normal.or_lanes<W>(v, rem);
        if (prev == 0) s.next_local.push_back(v);
        if (s.record_parents) record(v, rem & ~prev, t);
      }
    }
    vertices = s.delegate_queue.size();
  }
  k.edges = edges;
  k.vertices = vertices;
}

template <int W>
void visit_nd_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.nd;
  k.backward = s.dir_nd.backward();
  if (s.frontier.empty()) return;
  k.launched = true;

  const sim::ClusterSpec& spec = g.spec();
  const sim::GpuCoord me = g.me();
  // Every candidate feeds the min (see the dd pull).
  const auto record = [&](LocalId t, std::uint64_t lanes, LocalId v) {
    const VertexId v_global = spec.global_vertex(me.rank, me.gpu, v);
    VertexId* slots = &s.parent_delegate_nd[s.slot(t, 0)];
    for (std::uint64_t b = lanes; b != 0; b &= b - 1) {
      keep_min_parent(slots[std::countr_zero(b)], v_global);
    }
  };

  std::uint64_t edges = 0, vertices = 0;
  if (k.backward) {
    // Pull over the dn subgraph: each delegate with local normal parents,
    // unvisited in a live lane, scans them against the stable seen_normal
    // snapshot (same-iteration dn-visit discoveries live in next_normal and
    // are invisible here).
    const LocalId d = g.num_delegates();
    for (LocalId t = 0; t < d; ++t) {
      if (!g.dn_source_mask().test(t)) continue;
      const std::uint64_t unseen =
          pull_lanes<W>(s) & ~s.delegate_visited.lanes<W>(t);
      if (unseen == 0) continue;
      ++vertices;
      std::uint64_t miss = unseen;
      for (const LocalId v : g.dn().row(t)) {
        ++edges;
        const std::uint64_t hit = miss & s.seen_normal.lanes<W>(v);
        if (hit == 0) continue;
        if (s.record_parents) record(t, hit, v);
        miss &= ~hit;
        if (W == 1 || miss == 0) break;
      }
      if (miss != unseen) s.delegate_out_nd.or_lanes<W>(t, unseen & ~miss);
    }
  } else {
    for (const LocalId v : s.frontier) {
      // At W = 1 the frontier bitmap is already clean; the lane is
      // implicit.
      const std::uint64_t f = W == 1 ? 1 : s.frontier_normal.lanes<W>(v);
      const auto row = g.nd().row(v);
      edges += row.size();
      for (const LocalId c : row) {
        const std::uint64_t rem = f & ~s.delegate_visited.lanes<W>(c);
        if (rem == 0) continue;
        s.delegate_out_nd.or_lanes<W>(c, rem);
        if (s.record_parents) record(c, rem, v);
      }
    }
    vertices = s.frontier.size();
  }
  k.edges = edges;
  k.vertices = vertices;
}

template <int W>
void visit_nn_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.nn;
  k.backward = false;
  s.bins_total = 0;
  if (s.frontier.empty()) return;
  k.launched = true;
  // Every edge ORs its frontier lanes into its ghost's pending word: no
  // test and no routing per edge.
  std::uint64_t edges = 0;
  for (const LocalId v : s.frontier) {
    const auto row = g.nn().row(v);
    edges += row.size();
    const std::uint64_t f = W == 1 ? 1 : s.frontier_normal.lanes<W>(v);
    for (const LocalId ghost : row) s.pending.or_lanes<W>(ghost, f);
  }
  // Then one pass over the owner ranges bins the lanes not shipped before
  // (a shipped lane reaches its target at this depth + 1 or earlier, so
  // shipping it again changes nothing), one record per target in
  // ascending local id.  Each range covers whole storage words.
  constexpr std::uint64_t kLane = W == 64 ? ~0ULL : (1ULL << W) - 1;
  const graph::GhostTable& ghosts = g.ghosts();
  std::uint64_t binned = 0;
  for (int owner = 0; owner < ghosts.num_owners(); ++owner) {
    const std::size_t first = std::size_t{ghosts.begin(owner)} * W / 64;
    const std::size_t last = std::size_t{ghosts.end(owner)} * W / 64;
    for (std::size_t w = first; w < last; ++w) {
      const std::uint64_t reached = s.pending.word(w);
      if (reached == 0) continue;
      s.pending.set_word(w, 0);
      std::uint64_t rem = reached & ~s.sent.word(w);
      s.sent.or_word(w, rem);
      const auto first_ghost = static_cast<LocalId>(w * (64 / W));
      for (; rem != 0; ++binned) {
        const int bit = std::countr_zero(rem) / W * W;
        const LocalId local =
            ghosts.local(first_ghost + static_cast<LocalId>(bit / W));
        if constexpr (W == 1) {
          s.id_bins[static_cast<std::size_t>(owner)].push_back(local);
        } else {
          s.bins[static_cast<std::size_t>(owner)].push_back(
              comm::VertexUpdate{local, (rem >> bit) & kLane});
        }
        rem &= ~(kLane << bit);
      }
    }
  }
  k.edges = edges;
  k.vertices = s.frontier.size();
  s.bins_total = binned;
}

#define DSBFS_LANE_KERNELS(W)                                          \
  template void visit_dd_lanes<W>(LaneState&);                         \
  template void visit_dn_lanes<W>(LaneState&);                         \
  template void visit_nd_lanes<W>(LaneState&);                         \
  template void visit_nn_lanes<W>(LaneState&);
DSBFS_LANE_KERNELS(1)
DSBFS_LANE_KERNELS(8)
DSBFS_LANE_KERNELS(32)
DSBFS_LANE_KERNELS(64)
#undef DSBFS_LANE_KERNELS

}  // namespace dsbfs::core
