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
  sent.resize(graph.num_global_vertices());

  if (record_parents) {
    parent_normal.assign(n_local, kParentNone);
    parent_delegate_dd.assign(d, kParentNone);
    parent_delegate_nd.assign(d, kParentNone);
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
  sent.resize(graph.num_global_vertices(), lane_bits);

  if (record_parents) {
    parent_normal.assign(n_local * w, kParentNone);
    parent_delegate_dd.assign(static_cast<std::size_t>(d) * w, kParentNone);
    parent_delegate_nd.assign(static_cast<std::size_t>(d) * w, kParentNone);
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

}  // namespace dsbfs::core
