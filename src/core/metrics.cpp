#include "core/metrics.hpp"

#include <algorithm>
#include <utility>

namespace dsbfs::core {

namespace {

/// Transposes the per-GPU histories into rows under `header` (spec and how
/// the delegate reduction is charged) and replays them on the default
/// sim::PerfModel.  With rollback recovery the rows include replayed
/// iterations -- the honest accounting of what the cluster executed.
RunReport make_run_report(
    sim::RunCounters header,
    std::vector<std::vector<sim::GpuIterationCounters>>&& histories,
    double measured_ms, sim::FaultReport fault) {
  RunReport r;
  r.measured_ms = measured_ms;
  r.fault = std::move(fault);
  r.counters = std::move(header);
  const std::size_t rows = histories.empty() ? 0 : histories[0].size();
  r.counters.iterations.resize(rows);
  for (std::size_t it = 0; it < rows; ++it) {
    auto& gpu = r.counters.iterations[it].gpu;
    for (const auto& history : histories) gpu.push_back(history[it]);
  }
  r.modeled = sim::PerfModel{}.replay(r.counters);
  r.modeled_ms = r.modeled.elapsed_ms;
  return r;
}

}  // namespace

RunMetrics assemble_metrics(
    const graph::DistributedGraph& graph, bool overlap,
    comm::ReduceMode reduce_mode,
    std::vector<std::vector<sim::GpuIterationCounters>>&& histories,
    double measured_ms, sim::FaultReport fault, int lane_bits) {
  const std::uint64_t mask_bits =
      std::uint64_t{graph.num_delegates()} * lane_bits;
  RunMetrics m;
  static_cast<RunReport&>(m) = make_run_report(
      {.spec = graph.spec(),
       .delegate_mask_bytes = (mask_bits + 7) / 8,
       .blocking_reduce = reduce_mode == comm::ReduceMode::kBlocking,
       .overlap_comm = overlap,
       .iterations = {}},
      std::move(histories), measured_ms, std::move(fault));
  m.iterations = static_cast<int>(m.counters.iterations.size());
  m.lane_bits = lane_bits;
  m.teps_edges = graph.num_edges() / 2;

  for (const sim::IterationCounters& ic : m.counters.iterations) {
    IterationStats stats;
    for (std::size_t g = 0; g < ic.gpu.size(); ++g) {
      const sim::GpuIterationCounters& c = ic.gpu[g];
      const std::uint64_t edges =
          c.dd.edges + c.dn.edges + c.nd.edges + c.nn.edges;
      m.edges_traversed += edges;
      m.exchange_remote_bytes += c.send_bytes_remote;
      m.exchange_local_bytes += c.local_all2all_bytes;

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

  if (m.modeled_ms > 0) {
    m.modeled_gteps = static_cast<double>(m.teps_edges) / m.modeled_ms / 1e6;
  }
  if (m.measured_ms > 0) {
    m.measured_gteps = static_cast<double>(m.teps_edges) / m.measured_ms / 1e6;
  }
  return m;
}

ValueRunReport assemble_value_report(
    const graph::DistributedGraph& graph, int iterations,
    std::vector<std::vector<sim::GpuIterationCounters>>&& histories,
    double measured_ms, sim::FaultReport fault, bool overlap,
    std::uint64_t delegate_words_per_item) {
  const std::uint64_t d = graph.num_delegates();
  ValueRunReport m;
  static_cast<RunReport&>(m) = make_run_report(
      {.spec = graph.spec(),
       .delegate_mask_bytes = d * delegate_words_per_item * 8,
       .blocking_reduce = true,
       .overlap_comm = overlap,
       .iterations = {}},
      std::move(histories), measured_ms, std::move(fault));
  m.iterations = iterations;
  std::uint64_t prev_bucket_plus_one = 0;
  for (const sim::IterationCounters& ic : m.counters.iterations) {
    bool pulled = false;
    for (const sim::GpuIterationCounters& c : ic.gpu) {
      m.update_bytes_remote += c.send_bytes_remote;
      m.light_relaxations += c.light_edges;
      m.heavy_relaxations += c.heavy_edges;
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
                   static_cast<std::uint64_t>(m.counters.iterations.size());
  return m;
}

}  // namespace dsbfs::core
