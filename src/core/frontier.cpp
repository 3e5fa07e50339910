#include "core/frontier.hpp"

#include <array>
#include <bit>

namespace dsbfs::core {

GpuState::GpuState(const graph::LocalGraph& graph, int total_gpus,
                   bool record_parents)
    : record_parents(record_parents), graph_(&graph) {
  const std::uint64_t n_local = graph.num_local_normals();
  const LocalId d = graph.num_delegates();
  level_normal.assign(n_local, kUnvisited);
  seen_normal.resize(n_local);
  frontier_normal.resize(n_local);
  delegate_visited.resize(d);
  delegate_new.resize(d);
  delegate_out_dd.resize(d);
  delegate_out_nd.resize(d);
  level_delegate.assign(d, kUnvisited);

  if (record_parents) {
    parent_normal.assign(n_local, kParentNone);
    parent_delegate = std::make_unique<std::atomic<VertexId>[]>(d);
    for (LocalId t = 0; t < d; ++t) {
      parent_delegate[t].store(kParentNone, std::memory_order_relaxed);
    }
  }

  unvisited_nd_sources = graph.nd_source_count();
  unvisited_dd_sources = graph.dd_source_count();
  unvisited_dn_sources = graph.dn_source_count();

  bins.resize(static_cast<std::size_t>(total_gpus));
}

void GpuState::begin_iteration() {
  iter = sim::GpuIterationCounters{};
  delegate_queue.clear();
  frontier.clear();
}

void GpuState::end_iteration() {
  // next_local and received carry the next iteration's frontier inputs; the
  // next normal previsit consumes and clears them.
  delegate_out_dd.clear_all();
  delegate_out_nd.clear_all();
}

GpuSnapshot GpuState::save() const {
  GpuSnapshot s;
  s.level_normal = level_normal;
  s.seen_normal = seen_normal;
  s.frontier = frontier;
  s.next_local = next_local;
  s.received = received;
  s.delegate_visited = delegate_visited;
  s.delegate_new = delegate_new;
  s.delegate_out_dd = delegate_out_dd;
  s.delegate_out_nd = delegate_out_nd;
  s.level_delegate = level_delegate;
  s.delegate_queue = delegate_queue;
  s.dir_dd = dir_dd;
  s.dir_dn = dir_dn;
  s.dir_nd = dir_nd;
  s.controller = controller;
  s.unvisited_nd_sources = unvisited_nd_sources;
  s.unvisited_dd_sources = unvisited_dd_sources;
  s.unvisited_dn_sources = unvisited_dn_sources;
  s.fv_dd = fv_dd; s.fv_dn = fv_dn; s.fv_nd = fv_nd;
  s.bv_dd = bv_dd; s.bv_dn = bv_dn; s.bv_nd = bv_nd;
  s.bins = bins;
  if (record_parents) {
    s.parent_normal = parent_normal;
    s.parent_delegate.resize(level_delegate.size());
    for (std::size_t t = 0; t < s.parent_delegate.size(); ++t) {
      s.parent_delegate[t] = parent_delegate[t].load(std::memory_order_relaxed);
    }
  }
  s.depth = depth;
  return s;
}

void GpuState::restore(const GpuSnapshot& s) {
  level_normal = s.level_normal;
  seen_normal = s.seen_normal;
  // A rollback may interrupt a previsit between marking and extraction.
  frontier_normal.clear_all();
  frontier_words.clear();
  frontier = s.frontier;
  next_local = s.next_local;
  received = s.received;
  delegate_visited = s.delegate_visited;
  delegate_new = s.delegate_new;
  delegate_out_dd = s.delegate_out_dd;
  delegate_out_nd = s.delegate_out_nd;
  level_delegate = s.level_delegate;
  delegate_queue = s.delegate_queue;
  dir_dd = s.dir_dd;
  dir_dn = s.dir_dn;
  dir_nd = s.dir_nd;
  controller = s.controller;
  unvisited_nd_sources = s.unvisited_nd_sources;
  unvisited_dd_sources = s.unvisited_dd_sources;
  unvisited_dn_sources = s.unvisited_dn_sources;
  fv_dd = s.fv_dd; fv_dn = s.fv_dn; fv_nd = s.fv_nd;
  bv_dd = s.bv_dd; bv_dn = s.bv_dn; bv_nd = s.bv_nd;
  bins = s.bins;
  parent_normal = s.parent_normal;
  for (std::size_t t = 0; t < s.parent_delegate.size(); ++t) {
    parent_delegate[t].store(s.parent_delegate[t], std::memory_order_relaxed);
  }
  depth = s.depth;
}

LaneState::LaneState(const graph::LocalGraph& graph, int total_gpus,
                     int lane_bits, bool record_parents)
    : record_parents(record_parents), graph_(&graph), lane_bits_(lane_bits) {
  const std::uint64_t n_local = graph.num_local_normals();
  const LocalId d = graph.num_delegates();
  const auto w = static_cast<std::size_t>(lane_bits);

  seen_normal.resize(n_local, lane_bits);
  frontier_normal.resize(n_local, lane_bits);
  next_normal.resize(n_local, lane_bits);

  delegate_visited.resize(d, lane_bits);
  delegate_new.resize(d, lane_bits);
  delegate_out_dd.resize(d, lane_bits);
  delegate_out_nd.resize(d, lane_bits);
  depth_delegate.assign(static_cast<std::size_t>(d) * w, kUnvisited);

  if (record_parents) {
    parent_normal.assign(n_local * w, kParentNone);
    const std::size_t slots = static_cast<std::size_t>(d) * w;
    parent_delegate = std::make_unique<std::atomic<VertexId>[]>(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      parent_delegate[i].store(kParentNone, std::memory_order_relaxed);
    }
  }

  unvisited_nd_sources = graph.nd_source_count();
  unvisited_dd_sources = graph.dd_source_count();
  unvisited_dn_sources = graph.dn_source_count();

  bins.resize(static_cast<std::size_t>(total_gpus));
}

void LaneState::begin_iteration() {
  iter = sim::GpuIterationCounters{};
  delegate_queue.clear();
  frontier.clear();
  frontier_normal.clear_all();
}

void LaneState::end_iteration() {
  // next_local and received carry the next iteration's frontier inputs; the
  // next normal previsit consumes and clears them.
  delegate_out_dd.clear_all();
  delegate_out_nd.clear_all();
}

void LaneState::reduce_delegate_updates(comm::MaskReducer& reducer,
                                        sim::GpuCoord me, int iteration,
                                        comm::ReduceMode mode,
                                        bool any_updates) {
  if (!any_updates) {
    delegate_new.clear_all();
    return;
  }
  iter.delegate_update = true;
  // The two-phase OR reduce is word-wise, so the lane masks ride it
  // unchanged -- only the payload scales (d*W/8 bytes).
  util::LaneBitset reduced = delegate_visited;
  reduced.or_with(delegate_out_dd);
  reduced.or_with(delegate_out_nd);
  reducer.reduce(me, reduced, iteration, mode);
  util::LaneBitset::diff_into(reduced, delegate_visited, delegate_new);

  // Depths and pools are settled before the old visited mask is replaced.
  const Depth next_depth = depth + 1;
  delegate_new.for_each_nonzero_lanes([&](std::size_t t, std::uint64_t w) {
    if (direction_optimized && delegate_visited.lanes(t) == 0) {
      if (graph_->dd_source_mask().test(t)) --unvisited_dd_sources;
      if (graph_->dn_source_mask().test(t)) --unvisited_dn_sources;
    }
    for (std::uint64_t b = w; b != 0; b &= b - 1) {
      depth_delegate[slot(t, std::countr_zero(b))] = next_depth;
    }
  });
  delegate_visited = std::move(reduced);
}

void LaneState::decode_depths(std::size_t v, Depth* out) const noexcept {
  std::array<std::uint64_t, 32> words;
  const std::size_t planes = depth_words(v, words.data());
  const std::uint64_t unseen = ~seen_normal.lanes(v);
  const std::size_t layers = depth_byte_layers(planes);
  for (int first = 0; first < lane_bits_; first += 8) {
    for (std::size_t c = layers; c-- > 0;) {
      const std::uint64_t layer =
          depth_byte_layer(words.data(), planes, unseen, c, first);
      for (int k = 0; k < 8; ++k) {
        const auto byte = static_cast<std::uint8_t>(layer >> (8 * k));
        out[first + k] = c + 1 == layers
                             ? static_cast<std::int8_t>(byte)
                             : out[first + k] * 256 + static_cast<Depth>(byte);
      }
    }
  }
}

LaneSnapshot LaneState::save() const {
  LaneSnapshot s;
  s.seen_normal = seen_normal;
  s.frontier_normal = frontier_normal;
  s.next_normal = next_normal;
  s.frontier = frontier;
  s.next_local = next_local;
  s.received = received;
  s.depth_planes = depth_planes;
  s.delegate_visited = delegate_visited;
  s.delegate_new = delegate_new;
  s.delegate_out_dd = delegate_out_dd;
  s.delegate_out_nd = delegate_out_nd;
  s.depth_delegate = depth_delegate;
  s.delegate_queue = delegate_queue;
  s.dir_dd = dir_dd;
  s.dir_dn = dir_dn;
  s.dir_nd = dir_nd;
  s.controller = controller;
  s.dd_seed = dd_seed;
  s.dn_seed = dn_seed;
  s.nd_seed = nd_seed;
  s.unvisited_nd_sources = unvisited_nd_sources;
  s.unvisited_dd_sources = unvisited_dd_sources;
  s.unvisited_dn_sources = unvisited_dn_sources;
  s.fv_dd = fv_dd; s.fv_dn = fv_dn; s.fv_nd = fv_nd;
  s.bv_dd = bv_dd; s.bv_dn = bv_dn; s.bv_nd = bv_nd;
  s.bins = bins;
  if (record_parents) {
    s.parent_normal = parent_normal;
    s.parent_delegate.resize(depth_delegate.size());
    for (std::size_t i = 0; i < s.parent_delegate.size(); ++i) {
      s.parent_delegate[i] = parent_delegate[i].load(std::memory_order_relaxed);
    }
  }
  s.depth = depth;
  return s;
}

void LaneState::restore(const LaneSnapshot& s) {
  seen_normal = s.seen_normal;
  frontier_normal = s.frontier_normal;
  next_normal = s.next_normal;
  frontier = s.frontier;
  next_local = s.next_local;
  received = s.received;
  depth_planes = s.depth_planes;
  delegate_visited = s.delegate_visited;
  delegate_new = s.delegate_new;
  delegate_out_dd = s.delegate_out_dd;
  delegate_out_nd = s.delegate_out_nd;
  depth_delegate = s.depth_delegate;
  delegate_queue = s.delegate_queue;
  dir_dd = s.dir_dd;
  dir_dn = s.dir_dn;
  dir_nd = s.dir_nd;
  controller = s.controller;
  dd_seed = s.dd_seed;
  dn_seed = s.dn_seed;
  nd_seed = s.nd_seed;
  unvisited_nd_sources = s.unvisited_nd_sources;
  unvisited_dd_sources = s.unvisited_dd_sources;
  unvisited_dn_sources = s.unvisited_dn_sources;
  fv_dd = s.fv_dd; fv_dn = s.fv_dn; fv_nd = s.fv_nd;
  bv_dd = s.bv_dd; bv_dn = s.bv_dn; bv_nd = s.bv_nd;
  bins = s.bins;
  parent_normal = s.parent_normal;
  for (std::size_t i = 0; i < s.parent_delegate.size(); ++i) {
    parent_delegate[i].store(s.parent_delegate[i], std::memory_order_relaxed);
  }
  depth = s.depth;
}

}  // namespace dsbfs::core
