#include "core/visit.hpp"

#include <bit>

namespace dsbfs::core {

void visit_dd(GpuState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.dd;
  k.backward = s.dir_dd.backward();

  if (!k.backward) {
    if (s.delegate_queue.empty()) return;
    k.launched = true;
    for (const LocalId t : s.delegate_queue) {
      const auto row = g.dd().row(t);
      k.edges += row.size();
      for (const LocalId c : row) {
        if (!s.delegate_visited.test(c)) {
          s.delegate_out_dd.set(c);
          if (s.record_parents) {
            keep_min_parent(s.parent_delegate_dd[c], kParentDelegateTag | t);
          }
        }
      }
    }
    k.vertices = s.delegate_queue.size();
    return;
  }

  // Backward pull: every unvisited delegate with dd edges looks for one
  // visited parent (dd is locally symmetric, so it is its own reverse).
  // An empty delegate queue means no delegate was newly visited last round,
  // and every older (visited, unvisited) edge was already exploited by that
  // round's kernel -- the pull cannot discover anything, so the host skips
  // the launch exactly as the push path does.
  if (s.delegate_queue.empty()) return;
  k.launched = true;
  const LocalId d = g.num_delegates();
  for (LocalId t = 0; t < d; ++t) {
    if (!g.dd_source_mask().test(t) || s.delegate_visited.test(t)) continue;
    ++k.vertices;
    for (const LocalId c : g.dd().row(t)) {
      ++k.edges;
      if (s.delegate_visited.test(c)) {
        s.delegate_out_dd.set(t);
        if (s.record_parents) {
          keep_min_parent(s.parent_delegate_dd[t], kParentDelegateTag | c);
        }
        break;
      }
    }
  }
}

void visit_dn(GpuState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.dn;
  k.backward = s.dir_dn.backward();
  const Depth next_depth = s.depth + 1;

  if (!k.backward) {
    if (s.delegate_queue.empty()) return;
    k.launched = true;
    for (const LocalId t : s.delegate_queue) {
      const auto row = g.dn().row(t);
      k.edges += row.size();
      for (const LocalId v : row) {
        // The visited mask filters most targets without touching the
        // level array; the level test catches this visit's own claims.
        if (s.seen_normal.test(v) || s.level_normal[v] != kUnvisited) {
          continue;
        }
        s.level_normal[v] = next_depth;
        if (s.record_parents) s.parent_normal[v] = kParentDelegateTag | t;
        s.next_local.push_back(v);
      }
    }
    k.vertices = s.delegate_queue.size();
    return;
  }

  // Backward pull over the nd subgraph (reverse of dn on this GPU): each
  // unvisited normal with delegate parents scans them for a visited one.
  // New hits can only come from delegates visited last round -- with an
  // empty delegate queue the pull is a no-op and is not launched.  Each
  // source is probed once, so a vertex outside the visited mask is still
  // unclaimed here and the claim is a plain store.
  if (s.delegate_queue.empty()) return;
  k.launched = true;
  for (const LocalId v : g.nd_source_list()) {
    if (s.seen_normal.test(v)) continue;
    ++k.vertices;
    for (const LocalId c : g.nd().row(v)) {
      ++k.edges;
      if (s.delegate_visited.test(c)) {
        s.level_normal[v] = next_depth;
        if (s.record_parents) s.parent_normal[v] = kParentDelegateTag | c;
        s.next_local.push_back(v);
        break;
      }
    }
  }
}

void visit_nd(GpuState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.nd;
  k.backward = s.dir_nd.backward();

  const sim::ClusterSpec& spec = g.spec();
  const sim::GpuCoord me = g.me();
  const auto global_of = [&](LocalId v) {
    return spec.global_vertex(me.rank, me.gpu, v);
  };

  if (!k.backward) {
    if (s.frontier.empty()) return;
    k.launched = true;
    for (const LocalId v : s.frontier) {
      const auto row = g.nd().row(v);
      k.edges += row.size();
      for (const LocalId c : row) {
        if (!s.delegate_visited.test(c)) {
          s.delegate_out_nd.set(c);
          if (s.record_parents) {
            keep_min_parent(s.parent_delegate_nd[c], global_of(v));
          }
        }
      }
    }
    k.vertices = s.frontier.size();
    return;
  }

  // Backward pull over the dn subgraph: each unvisited delegate with local
  // normal parents scans them for one visited at distance <= depth (the
  // stable `seen_normal` snapshot; the concurrent dn visit's discoveries
  // carry depth+1 and are not in it).  New hits can only come from normals
  // visited last round -- with an empty normal frontier the pull is a
  // no-op and is not launched.
  if (s.frontier.empty()) return;
  k.launched = true;
  const LocalId d = g.num_delegates();
  for (LocalId t = 0; t < d; ++t) {
    if (!g.dn_source_mask().test(t) || s.delegate_visited.test(t)) continue;
    ++k.vertices;
    for (const LocalId v : g.dn().row(t)) {
      ++k.edges;
      if (s.seen_normal.test(v)) {
        s.delegate_out_nd.set(t);
        if (s.record_parents) {
          keep_min_parent(s.parent_delegate_nd[t], global_of(v));
        }
        break;
      }
    }
  }
}

// ---- lane-generalized visits (batched MS-BFS traversals) -----------------
// One row traversal serves every lane of the frontier word at once.
// Forward push: the single-source "unvisited? claim" test becomes
// `word & ~visited_lanes` followed by a lane-word OR whose previous value
// identifies the freshly claimed lanes (MS-BFS's visitNext |= visit &
// ~seen).  Each mask a kernel ORs into has that kernel as its only writer
// (LaneState's single-writer rules), so the OR is a plain load-OR-store.
// Backward pull reuses the same claim detection in reverse: an item
// unvisited in some live lanes (`miss = batch_mask & ~visited`) probes its
// in-edges and claims itself in every lane whose visited word intersects a
// neighbor's (`hit = miss & visited(neighbor)`), clearing hit lanes from
// `miss` and early-exiting once every live lane has found a parent -- one
// pull sweep serves all W sources.  The visited masks consumed are the
// iteration-stable snapshots (seen_normal / delegate_visited), so pulls
// never observe same-iteration discoveries, exactly the single-source
// discipline; at W = 1 each pull is bit-identical (candidates, edge counts,
// early exits) to its GpuState counterpart.

void visit_dd_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.dd;
  k.backward = s.dir_dd.backward();

  if (k.backward) {
    // Pull over dd itself (locally symmetric): every delegate with dd edges
    // still unvisited in a live lane scans its row for visited parents.
    // Empty delegate queue = no lane gained a delegate last round = nothing
    // new to hit; skip the launch like the push path (same gate in the
    // single-source kernel, so W = 1 stays counter-exact).
    if (s.delegate_queue.empty()) return;
    k.launched = true;
    const LocalId d = g.num_delegates();
    for (LocalId t = 0; t < d; ++t) {
      if (!g.dd_source_mask().test(t)) continue;
      std::uint64_t miss = s.batch_mask & ~s.delegate_visited.lanes(t);
      if (miss == 0) continue;
      ++k.vertices;
      for (const LocalId c : g.dd().row(t)) {
        ++k.edges;
        const std::uint64_t hit = miss & s.delegate_visited.lanes(c);
        if (hit == 0) continue;
        s.delegate_out_dd.or_lanes(t, hit);
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
        if (miss == 0) break;
      }
    }
    return;
  }

  if (s.delegate_queue.empty()) return;
  k.launched = true;
  for (const LocalId t : s.delegate_queue) {
    const std::uint64_t f = s.delegate_new.lanes(t);
    const auto row = g.dd().row(t);
    k.edges += row.size();
    for (const LocalId c : row) {
      const std::uint64_t rem = f & ~s.delegate_visited.lanes(c);
      if (rem == 0) continue;
      s.delegate_out_dd.or_lanes(c, rem);
      if (s.record_parents) {
        // Every candidate feeds the min (see the dd pull above).
        VertexId* slots = &s.parent_delegate_dd[s.slot(c, 0)];
        for (std::uint64_t b = rem; b != 0; b &= b - 1) {
          keep_min_parent(slots[std::countr_zero(b)], kParentDelegateTag | t);
        }
      }
    }
  }
  k.vertices = s.delegate_queue.size();
}

void visit_dn_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.dn;
  k.backward = s.dir_dn.backward();

  if (k.backward) {
    // Pull over the nd subgraph (reverse of dn on this GPU): each normal
    // with delegate parents, unvisited in a live lane, scans them for
    // visited delegates and claims itself in the intersecting lanes.  New
    // hits require a delegate newly visited last round; empty queue = no-op.
    if (s.delegate_queue.empty()) return;
    k.launched = true;
    for (const LocalId v : g.nd_source_list()) {
      std::uint64_t miss = s.batch_mask & ~s.seen_normal.lanes(v);
      if (miss == 0) continue;
      ++k.vertices;
      for (const LocalId c : g.nd().row(v)) {
        ++k.edges;
        const std::uint64_t hit = miss & s.delegate_visited.lanes(c);
        if (hit == 0) continue;
        const std::uint64_t prev = s.next_normal.or_lanes(v, hit);
        if (prev == 0) s.next_local.push_back(v);
        if (s.record_parents) {
          for (std::uint64_t b = hit & ~prev; b != 0; b &= b - 1) {
            s.parent_normal[s.slot(v, std::countr_zero(b))] =
                kParentDelegateTag | c;
          }
        }
        miss &= ~hit;
        if (miss == 0) break;
      }
    }
    return;
  }

  if (s.delegate_queue.empty()) return;
  k.launched = true;
  for (const LocalId t : s.delegate_queue) {
    const std::uint64_t f = s.delegate_new.lanes(t);
    const auto row = g.dn().row(t);
    k.edges += row.size();
    for (const LocalId v : row) {
      const std::uint64_t rem = f & ~s.seen_normal.lanes(v);
      if (rem == 0) continue;
      const std::uint64_t prev = s.next_normal.or_lanes(v, rem);
      if (prev == 0) s.next_local.push_back(v);
      if (s.record_parents) {
        for (std::uint64_t b = rem & ~prev; b != 0; b &= b - 1) {
          s.parent_normal[s.slot(v, std::countr_zero(b))] =
              kParentDelegateTag | t;
        }
      }
    }
  }
  k.vertices = s.delegate_queue.size();
}

void visit_nd_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.nd;
  k.backward = s.dir_nd.backward();

  const sim::ClusterSpec& spec = g.spec();
  const sim::GpuCoord me = g.me();

  if (k.backward) {
    // Pull over the dn subgraph: each delegate with local normal parents,
    // unvisited in a live lane, scans them against the stable seen_normal
    // snapshot (same-iteration dn-visit discoveries live in next_normal and
    // are invisible here, exactly the single-source lvl <= depth test).  New
    // hits require a normal newly visited last round; empty frontier = no-op.
    if (s.frontier.empty()) return;
    k.launched = true;
    const LocalId d = g.num_delegates();
    for (LocalId t = 0; t < d; ++t) {
      if (!g.dn_source_mask().test(t)) continue;
      std::uint64_t miss = s.batch_mask & ~s.delegate_visited.lanes(t);
      if (miss == 0) continue;
      ++k.vertices;
      for (const LocalId v : g.dn().row(t)) {
        ++k.edges;
        const std::uint64_t hit = miss & s.seen_normal.lanes(v);
        if (hit == 0) continue;
        s.delegate_out_nd.or_lanes(t, hit);
        if (s.record_parents) {
          // Every candidate feeds the min (see the dd pull above).
          const VertexId v_global = spec.global_vertex(me.rank, me.gpu, v);
          VertexId* slots = &s.parent_delegate_nd[s.slot(t, 0)];
          for (std::uint64_t b = hit; b != 0; b &= b - 1) {
            keep_min_parent(slots[std::countr_zero(b)], v_global);
          }
        }
        miss &= ~hit;
        if (miss == 0) break;
      }
    }
    return;
  }

  if (s.frontier.empty()) return;
  k.launched = true;
  for (const LocalId v : s.frontier) {
    const std::uint64_t f = s.frontier_normal.lanes(v);
    const auto row = g.nd().row(v);
    k.edges += row.size();
    for (const LocalId c : row) {
      const std::uint64_t rem = f & ~s.delegate_visited.lanes(c);
      if (rem == 0) continue;
      s.delegate_out_nd.or_lanes(c, rem);
      if (s.record_parents) {
        // Every candidate feeds the min (see the dd pull above).
        const VertexId v_global = spec.global_vertex(me.rank, me.gpu, v);
        VertexId* slots = &s.parent_delegate_nd[s.slot(c, 0)];
        for (std::uint64_t b = rem; b != 0; b &= b - 1) {
          keep_min_parent(slots[std::countr_zero(b)], v_global);
        }
      }
    }
  }
  k.vertices = s.frontier.size();
}

void visit_nn_lanes(LaneState& s, const sim::ClusterSpec& spec) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.nn;
  k.backward = false;
  if (s.frontier.empty()) return;
  k.launched = true;
  const sim::VertexRouter router(spec);
  for (const LocalId v : s.frontier) {
    const std::uint64_t f = s.frontier_normal.lanes(v);
    const auto row = g.nn().row(v);
    k.edges += row.size();
    for (const VertexId dst : row) {
      // Only the lanes not yet shipped to dst: a shipped lane reaches dst
      // at this depth + 1 or earlier, so shipping it again changes nothing.
      const std::uint64_t rem = f & ~s.sent.or_lanes(dst, f);
      if (rem == 0) continue;
      const auto [owner, local] = router.split(dst);
      s.bins[static_cast<std::size_t>(owner)].push_back(
          comm::VertexUpdate{static_cast<LocalId>(local), rem});
    }
  }
  k.vertices = s.frontier.size();
}

void visit_nn(GpuState& s, const sim::ClusterSpec& spec) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.nn;
  k.backward = false;
  if (s.frontier.empty()) return;
  k.launched = true;
  const sim::VertexRouter router(spec);
  for (const LocalId v : s.frontier) {
    const auto row = g.nn().row(v);
    k.edges += row.size();
    for (const VertexId dst : row) {
      if (!s.sent.set(dst)) continue;  // already shipped (visit_nn_lanes)
      const auto [owner, local] = router.split(dst);
      s.bins[static_cast<std::size_t>(owner)].push_back(
          static_cast<LocalId>(local));
    }
  }
  k.vertices = s.frontier.size();
}

}  // namespace dsbfs::core
