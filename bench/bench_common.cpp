#include "bench_common.hpp"

#include <cstdio>

#include "baseline/serial_bfs.hpp"

namespace dsbfs::bench {

SeriesResult run_series(const graph::DistributedGraph& graph,
                        sim::Cluster& cluster, const core::BfsOptions& options,
                        int sources, std::uint64_t source_seed,
                        const graph::HostCsr* oracle) {
  core::DistributedBfs bfs(graph, cluster, options);
  SeriesResult out;
  double comp = 0, local = 0, exch = 0, reduce = 0, iters = 0, riters = 0;
  for (int s = 0; s < sources; ++s) {
    const VertexId source =
        bfs.sample_source(source_seed * 1000 + static_cast<std::uint64_t>(s));
    const core::BfsResult result = bfs.run(source);
    if (oracle != nullptr &&
        result.distances != baseline::serial_bfs(*oracle, source)) {
      ++out.diverged_runs;
    }
    if (result.metrics.iterations <= 1) {
      ++out.skipped_runs;
      continue;
    }
    ++out.counted_runs;
    out.modeled_gteps.add(result.metrics.modeled_gteps);
    out.measured_gteps.add(result.metrics.measured_gteps);
    out.modeled_ms.add(result.metrics.modeled_ms);
    comp += result.metrics.modeled.computation_ms;
    local += result.metrics.modeled.local_comm_ms;
    exch += result.metrics.modeled.normal_exchange_ms;
    reduce += result.metrics.modeled.delegate_reduce_ms;
    iters += result.metrics.iterations;
    riters += result.metrics.delegate_reduce_iterations;
  }
  if (out.counted_runs > 0) {
    const double inv = 1.0 / out.counted_runs;
    out.computation_ms = comp * inv;
    out.local_comm_ms = local * inv;
    out.normal_exchange_ms = exch * inv;
    out.delegate_reduce_ms = reduce * inv;
    out.mean_iterations = iters * inv;
    out.mean_reduce_iterations = riters * inv;
  }
  return out;
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Rates marked 'modeled' replay measured workload/communication\n");
  std::printf(
      "counters on a P100 + EDR-InfiniBand cluster model "
      "(docs/ARCHITECTURE.md).\n");
  std::printf("==============================================================\n");
}

sim::ResilienceOptions parse_fault_cli(util::Cli& cli) {
  sim::ResilienceOptions r;
  r.faults.seed = static_cast<std::uint64_t>(
      cli.get_int("fault-seed", 1, "fault schedule seed"));
  r.faults.drop_rate = cli.get_double(
      "fault-drop-rate", 0.0, "per-message drop probability (data plane)");
  r.faults.corrupt_rate = cli.get_double(
      "fault-corrupt-rate", 0.0, "per-message bit-flip probability");
  return r;
}

std::vector<std::uint32_t> sqrt2_ladder(std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> out;
  double x = lo;
  std::uint32_t prev = 0;
  while (static_cast<std::uint32_t>(x) <= hi) {
    const auto th = static_cast<std::uint32_t>(x);
    if (th != prev) out.push_back(th);
    prev = th;
    x *= 1.41421356237;
  }
  return out;
}

}  // namespace dsbfs::bench
