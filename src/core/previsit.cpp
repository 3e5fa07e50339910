#include "core/previsit.hpp"

#include <algorithm>
#include <bit>

namespace dsbfs::core {

void delegate_previsit_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  std::uint64_t new_items = 0;
  std::uint64_t new_bits = 0;
  std::uint64_t lane_union = 0;
  double fv_dd = 0, fv_dn = 0;
  s.delegate_new.for_each_nonzero_lanes([&](std::size_t t, std::uint64_t w) {
    ++new_items;
    new_bits += static_cast<std::uint64_t>(std::popcount(w));
    lane_union |= w;
    const std::uint32_t dd_len = g.dd().row_length(t);
    const std::uint32_t dn_len = g.dn().row_length(t);
    if (dd_len == 0 && dn_len == 0) return;  // zero-out-degree filter
    s.delegate_queue.push_back(static_cast<LocalId>(t));
    fv_dd += dd_len;
    fv_dn += dn_len;
  });
  s.iter.dprev_vertices = new_items;
  s.iter.delegate_lane_bits = new_bits;
  const int live = std::popcount(lane_union);
  s.iter.delegate_live_lanes = static_cast<std::uint64_t>(live);
  s.iter.direction_decisions = s.direction_optimized;
  // FV/BV estimation rides the queue-formation scan above, so the replay is
  // told not to charge separate estimation launches
  // (sim::GpuIterationCounters::direction_decisions_fused).
  s.iter.direction_decisions_fused = s.direction_optimized;
  if (!s.direction_optimized) return;

  const std::uint64_t q = s.delegate_queue.size();
  s.fv_dd = fv_dd;
  s.fv_dn = fv_dn;
  // The union frontier pulls for every live lane at once: one sweep of the
  // reverse rows, each candidate early-exiting per lane (the harmonic
  // scaling inside lane_backward_workload) and never past its row (the
  // candidates' edge-mass cap).  Pools count items untouched in every lane,
  // so at W = 1 these are the single-source estimates.  dd's reversed
  // graph is dd itself (locally symmetric); dn's is nd, so its pull
  // candidates are unvisited nd sources scanning their nd rows, and its
  // potential parents delegates with dn edges.
  s.bv_dd = lane_backward_workload(s.unvisited_dd_sources, q,
                                   s.unvisited_dd_sources, live,
                                   s.unvisited_dd_edges);
  s.bv_dn = lane_backward_workload(s.unvisited_nd_sources, q,
                                   s.unvisited_dn_sources, live,
                                   s.unvisited_nd_edges);
  if (s.adaptive_direction) {
    s.dir_dd.set_factors(s.controller.factors(kBfsDirectionSeeds.dd, true));
    s.dir_dn.set_factors(s.controller.factors(kBfsDirectionSeeds.dn, false));
  }
  if (q > 0) {
    s.dir_dd.update(s.fv_dd, s.bv_dd, true);
    s.dir_dn.update(s.fv_dn, s.bv_dn, true);
  }
}

template <int W>
void normal_previsit_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  s.iter.nprev_vertices =
      s.next_local.size() + s.received.size() + s.id_received.size();

  // A frontier lane bit is new at this depth (the dn claims and the arrival
  // dedup below admit each (vertex, lane) once), so the previsit is the one
  // place a normal depth is written: it stamps the frontier words into the
  // planes of the depth's set bits, adding the plane the depth first needs.
  const auto depth = static_cast<std::uint32_t>(s.depth);
  while (s.depth_planes.size() < std::bit_width(depth)) {
    s.depth_planes.emplace_back(g.num_local_normals(), W);
  }
  std::uint64_t frontier_bits = 0;
  std::uint64_t lane_union = 0;
  double fv_nd = 0;

  if constexpr (W == 1) {
    // Mark the frontier in the bitmap, remembering each word it turns
    // non-zero, and in the visited mask.  The dn claims are unseen by
    // construction; arrivals are deduplicated against the visited mask,
    // which by then holds every earlier frontier and the marks made so far.
    const auto mark = [&s](std::size_t w, std::uint64_t bit) {
      const std::uint64_t word = s.frontier_normal.word(w);
      if (word == 0) s.frontier_words.push_back(w);
      s.frontier_normal.set_word(w, word | bit);
      s.seen_normal.set_word(w, s.seen_normal.word(w) | bit);
    };
    for (const LocalId v : s.next_local) {
      mark(v >> 6, 1ULL << (v & 63));
      s.next_normal.set_word(v >> 6, 0);  // its bits are all in next_local
    }
    s.next_local.clear();
    for (const LocalId v : s.id_received) {
      const std::size_t w = v >> 6;
      const std::uint64_t bit = 1ULL << (v & 63);
      if ((s.seen_normal.word(w) & bit) != 0) continue;
      mark(w, bit);
      // The sender's identity is not transmitted during traversal (4-byte
      // ids only); the end-of-run parent exchange resolves these.
      if (s.record_parents) s.parent_normal[v] = kParentViaNn;
    }
    s.id_received.clear();

    // Extract the frontier in ascending order, so the nd and nn visits walk
    // their CSR rows in order, and stamp each word's depth at once.  Sorting
    // the touched words keeps the cost proportional to the frontier rather
    // than to n/64.  Every frontier vertex is newly visited, so the nd
    // sources among them, and their nd edges (fv_nd), leave the unvisited
    // pools.
    std::sort(s.frontier_words.begin(), s.frontier_words.end());
    std::uint64_t newly_in_pool = 0;
    for (const std::size_t w : s.frontier_words) {
      const std::uint64_t bits = s.frontier_normal.word(w);
      s.frontier_normal.set_word(w, 0);
      for (std::uint32_t m = depth; m != 0; m &= m - 1) {
        s.depth_planes[static_cast<std::size_t>(std::countr_zero(m))].or_word(
            w, bits);
      }
      newly_in_pool += static_cast<std::uint64_t>(
          std::popcount(bits & g.nd_source_mask().word(w)));
      for (std::uint64_t b = bits; b != 0; b &= b - 1) {
        const auto v = static_cast<LocalId>(w * 64 + std::countr_zero(b));
        s.frontier.push_back(v);
        fv_nd += g.nd().row_length(v);
      }
    }
    s.frontier_words.clear();
    s.unvisited_nd_sources -= newly_in_pool;
    s.unvisited_nd_edges -= static_cast<std::uint64_t>(fv_nd);
    frontier_bits = s.frontier.size();
    lane_union = s.frontier.empty() ? 0 : 1;
  } else {
    // Locally discovered lanes were already claimed by the dn visit; fold
    // them into the visited mask and the frontier.  `or_lanes` returning 0
    // means first touch, which keeps the frontier queue duplicate-free.  An
    // item first touched in *any* lane leaves the unvisited nd-source pool
    // and takes its nd row out of the pool's edge mass (all-lane pools, the
    // single-source pools at W = 1).
    const auto leave_nd_pool = [&s, &g](LocalId v) {
      if (!g.nd_source_mask().test(v)) return;
      --s.unvisited_nd_sources;
      s.unvisited_nd_edges -= g.nd().row_length(v);
    };
    for (const LocalId v : s.next_local) {
      const std::uint64_t lanes = s.next_normal.lanes<W>(v);
      if (s.seen_normal.or_lanes<W>(v, lanes) == 0) leave_nd_pool(v);
      if (s.frontier_normal.or_lanes<W>(v, lanes) == 0) {
        s.frontier.push_back(v);
      }
    }
    s.next_local.clear();
    s.next_normal.clear_all();

    // Exchange arrivals are deduplicated against the visited lanes here:
    // the sender ships its frontier lanes, the receiver keeps the lanes it
    // has not seen.
    for (const comm::VertexUpdate& u : s.received) {
      const std::uint64_t prev_seen =
          s.seen_normal.or_lanes<W>(u.vertex, u.value);
      if (prev_seen == 0) leave_nd_pool(u.vertex);
      const std::uint64_t fresh = u.value & ~prev_seen;
      if (fresh == 0) continue;
      if (s.record_parents) {
        // The sender's identity is not transmitted during traversal; the
        // end-of-run lane parent exchange resolves these.
        for (std::uint64_t b = fresh; b != 0; b &= b - 1) {
          s.parent_normal[s.slot(u.vertex, std::countr_zero(b))] =
              kParentViaNn;
        }
      }
      if (s.frontier_normal.or_lanes<W>(u.vertex, fresh) == 0) {
        s.frontier.push_back(u.vertex);
      }
    }
    s.received.clear();

    for (const LocalId v : s.frontier) {
      const std::uint64_t w = s.frontier_normal.lanes<W>(v);
      for (std::uint32_t m = depth; m != 0; m &= m - 1) {
        s.depth_planes[static_cast<std::size_t>(std::countr_zero(m))]
            .or_lanes<W>(v, w);
      }
      frontier_bits += static_cast<std::uint64_t>(std::popcount(w));
      lane_union |= w;
      fv_nd += g.nd().row_length(v);
    }
  }
  s.iter.frontier_lane_bits = frontier_bits;
  const int live = std::popcount(lane_union);
  s.iter.frontier_live_lanes = static_cast<std::uint64_t>(live);
  if (!s.direction_optimized) return;

  // nd: reversed subgraph is dn; pull candidates are unvisited delegates
  // scanning their dn rows, potential parents are normals with nd edges.
  const std::uint64_t q = s.frontier.size();
  s.fv_nd = fv_nd;
  s.bv_nd = lane_backward_workload(s.unvisited_dn_sources, q,
                                   s.unvisited_nd_sources, live,
                                   s.unvisited_dn_edges);
  if (s.adaptive_direction) {
    s.dir_nd.set_factors(s.controller.factors(kBfsDirectionSeeds.nd, false));
  }
  if (q > 0) s.dir_nd.update(s.fv_nd, s.bv_nd, true);
}

template void normal_previsit_lanes<1>(LaneState&);
template void normal_previsit_lanes<8>(LaneState&);
template void normal_previsit_lanes<32>(LaneState&);
template void normal_previsit_lanes<64>(LaneState&);

}  // namespace dsbfs::core
