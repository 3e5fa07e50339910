#include "core/frontier.hpp"

#include <bit>
#include <stdexcept>

namespace dsbfs::core {

LaneState::LaneState(const graph::LocalGraph& graph, int total_gpus,
                     int lane_bits, bool record_parents)
    : record_parents(record_parents), graph_(&graph), lane_bits_(lane_bits) {
  if (util::lane_width_for(static_cast<std::size_t>(lane_bits)) != lane_bits) {
    throw std::invalid_argument("lane state width must be 1, 8, 32 or 64");
  }
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
  sent.resize(graph.ghosts().slots(), lane_bits);
  pending.resize(graph.ghosts().slots(), lane_bits);

  if (record_parents) {
    parent_normal.assign(n_local * w, kParentNone);
    parent_delegate_dd.assign(static_cast<std::size_t>(d) * w, kParentNone);
    parent_delegate_nd.assign(static_cast<std::size_t>(d) * w, kParentNone);
  }

  unvisited_nd_sources = graph.nd_source_count();
  unvisited_dd_sources = graph.dd_source_count();
  unvisited_dn_sources = graph.dn_source_count();
  unvisited_nd_edges = graph.nd().num_edges();
  unvisited_dd_edges = graph.dd().num_edges();
  unvisited_dn_edges = graph.dn().num_edges();

  if (lane_bits == 1) {
    id_bins.resize(static_cast<std::size_t>(total_gpus));
  } else {
    bins.resize(static_cast<std::size_t>(total_gpus));
  }
}

void LaneState::begin_iteration() {
  iter = sim::GpuIterationCounters{};
  delegate_queue.clear();
  frontier.clear();
  // At W = 1 the previsit leaves the frontier bitmap clean.
  if (lane_bits_ > 1) frontier_normal.clear_all();
}

void LaneState::end_iteration() {
  // next_local and received carry the next iteration's frontier inputs; the
  // next normal previsit consumes and clears them.
  delegate_out_dd.clear_all();
  delegate_out_nd.clear_all();
}

std::uint64_t LaneState::device_bytes() const noexcept {
  const auto w = static_cast<std::uint64_t>(lane_bits_);
  return (graph_->num_local_normals() + graph_->num_delegates()) * w *
             sizeof(Depth) +
         3 * delegate_visited.byte_size() + 3 * seen_normal.byte_size() +
         sent.byte_size();
}

void LaneState::seed(int lane, VertexId source, LocalId delegate,
                     Depth depth) {
  const std::uint64_t bit = 1ULL << lane;
  if (delegate != kInvalidLocal) {
    delegate_new.or_lanes(delegate, bit);
    // First touch in any lane leaves the all-lane unvisited pools
    // (duplicate sources only decrement once).
    if (delegate_visited.or_lanes(delegate, bit) == 0 && direction_optimized) {
      leave_delegate_pools(delegate);
    }
    depth_delegate[slot(delegate, lane)] = depth;
    if (record_parents) parent_delegate_dd[slot(delegate, lane)] = source;
    return;
  }
  const sim::ClusterSpec& spec = graph_->spec();
  if (spec.owner_global_gpu(source) != spec.global_gpu(graph_->me())) return;
  const auto local = static_cast<LocalId>(spec.local_index(source));
  if (record_parents) parent_normal[slot(local, lane)] = source;
  if (next_normal.or_lanes(local, bit) == 0) next_local.push_back(local);
}

void LaneState::leave_delegate_pools(std::size_t t) noexcept {
  if (graph_->dd_source_mask().test(t)) --unvisited_dd_sources;
  if (graph_->dn_source_mask().test(t)) --unvisited_dn_sources;
  unvisited_dd_edges -= graph_->dd().row_length(t);
  unvisited_dn_edges -= graph_->dn().row_length(t);
}

std::uint64_t LaneState::unseen_arrival_lanes() const noexcept {
  std::uint64_t lanes = 0;
  for (const LocalId v : id_received) lanes |= ~seen_normal.lanes(v) & 1;
  for (const comm::VertexUpdate& u : received) {
    lanes |= u.value & ~seen_normal.lanes(u.vertex);
  }
  return lanes;
}

void LaneState::clear_arrival_lanes(std::uint64_t bit) noexcept {
  id_received.clear();  // W = 1: every arrival is in the one lane
  for (comm::VertexUpdate& u : received) u.value &= ~bit;
}

void LaneState::reduce_delegate_updates(comm::ValueReducer& reducer,
                                        sim::GpuCoord me, int iteration,
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
  reducer.reduce(me, reduced.words(), comm::ValueReducer::Op::kOr, iteration);
  util::LaneBitset::diff_into(reduced, delegate_visited, delegate_new);

  // Depths and pools are settled before the old visited mask is replaced.
  const Depth next_depth = depth + 1;
  delegate_new.for_each_nonzero_lanes([&](std::size_t t, std::uint64_t w) {
    if (direction_optimized && delegate_visited.lanes(t) == 0) {
      leave_delegate_pools(t);
    }
    for (std::uint64_t b = w; b != 0; b &= b - 1) {
      depth_delegate[slot(t, std::countr_zero(b))] = next_depth;
    }
  });
  delegate_visited = std::move(reduced);
}

}  // namespace dsbfs::core
