#include "core/metrics.hpp"

#include <algorithm>

namespace dsbfs::core {

RunMetrics assemble_metrics(
    const graph::DistributedGraph& graph, bool overlap,
    comm::ReduceMode reduce_mode,
    std::vector<std::vector<sim::GpuIterationCounters>>&& histories,
    double measured_ms, int lane_bits) {
  RunMetrics m;
  const int p = graph.spec().total_gpus();
  const std::size_t iters = histories.empty() ? 0 : histories[0].size();
  m.iterations = static_cast<int>(iters);
  m.lane_bits = lane_bits;
  m.teps_edges = graph.num_edges() / 2;
  m.measured_ms = measured_ms;

  m.counters.spec = graph.spec();
  m.counters.delegate_mask_bytes =
      (static_cast<std::uint64_t>(graph.num_delegates()) *
           static_cast<std::uint64_t>(lane_bits) +
       7) /
      8;
  m.counters.blocking_reduce = reduce_mode == comm::ReduceMode::kBlocking;
  m.counters.overlap_comm = overlap;
  m.counters.iterations.resize(iters);

  for (std::size_t it = 0; it < iters; ++it) {
    sim::IterationCounters& ic = m.counters.iterations[it];
    ic.gpu.resize(static_cast<std::size_t>(p));
    IterationStats stats;
    for (int g = 0; g < p; ++g) {
      const sim::GpuIterationCounters& c =
          histories[static_cast<std::size_t>(g)][it];
      ic.gpu[static_cast<std::size_t>(g)] = c;

      const std::uint64_t edges =
          c.dd.edges + c.dn.edges + c.nd.edges + c.nn.edges;
      m.edges_traversed += edges;
      m.exchange_remote_bytes += c.send_bytes_remote;
      m.exchange_local_bytes += c.local_all2all_bytes;
      m.retries += c.retries;
      m.corrupt_bins += c.corrupt_bins;
      m.recovery_ns += c.recovery_ns;

      stats.frontier_normals += c.nn.launched ? c.nn.vertices : 0;
      stats.frontier_lane_bits += c.frontier_lane_bits;
      stats.live_frontier_lanes =
          std::max(stats.live_frontier_lanes, c.frontier_live_lanes);
      // Delegates are replicated on every GPU; count them once (GPU 0's
      // delegate_new equals everyone's after the reduction).
      if (g == 0) {
        stats.new_delegates = c.dprev_vertices;
        stats.new_delegate_lane_bits = c.delegate_lane_bits;
        stats.live_delegate_lanes = c.delegate_live_lanes;
      }
      stats.edges_traversed += edges;
      stats.exchanged_vertices += c.bin_vertices;
      stats.delegate_reduce |= c.delegate_update;
      stats.dd_backward |= c.dd.backward && c.dd.launched;
      stats.dn_backward |= c.dn.backward && c.dn.launched;
      stats.nd_backward |= c.nd.backward && c.nd.launched;
    }
    if (stats.delegate_reduce) {
      ++m.delegate_reduce_iterations;
      m.mask_reduce_bytes += 2 * m.counters.delegate_mask_bytes *
                             static_cast<std::uint64_t>(graph.spec().num_ranks);
    }
    m.per_iteration.push_back(stats);
  }

  m.modeled = sim::PerfModel{}.replay(m.counters);
  m.modeled_ms = m.modeled.elapsed_ms;
  if (m.modeled_ms > 0) {
    m.modeled_gteps = static_cast<double>(m.teps_edges) / m.modeled_ms / 1e6;
  }
  if (m.measured_ms > 0) {
    m.measured_gteps = static_cast<double>(m.teps_edges) / m.measured_ms / 1e6;
  }
  return m;
}

ValueAppMetrics assemble_value_app_metrics(
    const graph::DistributedGraph& graph,
    const std::vector<std::vector<sim::GpuIterationCounters>>& histories,
    bool overlap, std::uint64_t delegate_words_per_item) {
  ValueAppMetrics m;
  const int p = graph.spec().total_gpus();
  const std::uint64_t d = graph.num_delegates();
  const std::size_t rows = histories.empty() ? 0 : histories[0].size();

  m.counters.spec = graph.spec();
  m.counters.delegate_mask_bytes = d * delegate_words_per_item * 8;
  m.counters.blocking_reduce = true;
  m.counters.overlap_comm = overlap;
  m.counters.iterations.resize(rows);
  std::uint64_t prev_bucket_plus_one = 0;
  for (std::size_t it = 0; it < m.counters.iterations.size(); ++it) {
    auto& ic = m.counters.iterations[it];
    ic.gpu.resize(static_cast<std::size_t>(p));
    bool pulled = false;
    for (int g = 0; g < p; ++g) {
      const sim::GpuIterationCounters& c =
          histories[static_cast<std::size_t>(g)][it];
      ic.gpu[static_cast<std::size_t>(g)] = c;
      m.update_bytes_remote += c.send_bytes_remote;
      m.light_relaxations += c.light_edges;
      m.heavy_relaxations += c.heavy_edges;
      m.retries += c.retries;
      m.corrupt_bins += c.corrupt_bins;
      m.recovery_ns += c.recovery_ns;
      pulled |= (c.dd.backward && c.dd.launched) ||
                (c.dn.backward && c.dn.launched) ||
                (c.nd.backward && c.nd.launched);
    }
    if (pulled) ++m.pull_iterations;
    // Bucket/phase flags are cluster-global decisions, identical on every
    // GPU; GPU 0's row speaks for the round.  Buckets strictly increase, so
    // counting transitions counts distinct opened buckets.
    const sim::GpuIterationCounters& g0 = ic.gpu[0];
    if (g0.bucket_plus_one != 0) {
      if (g0.bucket_plus_one != prev_bucket_plus_one) ++m.buckets_processed;
      if (g0.heavy_phase) {
        ++m.heavy_iterations;
      } else {
        ++m.light_iterations;
      }
    }
    prev_bucket_plus_one = g0.bucket_plus_one;
  }
  m.reduce_bytes = 2ULL * d * delegate_words_per_item * 8 *
                   static_cast<std::uint64_t>(graph.spec().num_ranks) *
                   static_cast<std::uint64_t>(rows);

  m.modeled = sim::PerfModel{}.replay(m.counters);
  m.modeled_ms = m.modeled.elapsed_ms;
  return m;
}

}  // namespace dsbfs::core
