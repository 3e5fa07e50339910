// Quickstart: build a distributed graph, run one direction-optimized BFS on
// a simulated 4-GPU cluster, and print distances plus the run metrics.
//
//   ./quickstart [--scale=16] [--gpus=1x2x2] [--threshold=0 (auto)]
//                [--fault-seed=1] [--fault-drop-rate=0] [--fault-corrupt-rate=0]
#include <cstdio>
#include <iostream>

#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/partition_stats.hpp"
#include "graph/rmat.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 16, "RMAT scale"));
  const std::string gpus = cli.get_string("gpus", "1x2x2", "cluster NxRxG");
  std::uint32_t threshold = static_cast<std::uint32_t>(
      cli.get_int("threshold", 0, "degree threshold (0 = auto-suggest)"));
  core::BfsOptions options;
  options.run.resilience.faults.seed = static_cast<std::uint64_t>(
      cli.get_int("fault-seed", 1, "fault schedule seed"));
  options.run.resilience.faults.drop_rate = cli.get_double(
      "fault-drop-rate", 0.0, "per-message drop probability (chaos mode)");
  options.run.resilience.faults.corrupt_rate = cli.get_double(
      "fault-corrupt-rate", 0.0, "per-message bit-flip probability");
  if (cli.help_requested()) {
    cli.print_help("Quickstart: one DOBFS run on a simulated GPU cluster");
    return 0;
  }

  // 1. Generate a Graph500 RMAT graph (symmetric, label-randomized).
  const graph::EdgeList edges =
      graph::rmat_graph500({.scale = scale, .seed = 1});
  std::printf("graph: n=%s  m=%s (directed, after doubling)\n",
              util::format_count(edges.num_vertices).c_str(),
              util::format_count(edges.size()).c_str());

  // 2. Pick a degree threshold and build the degree-separated distributed
  //    representation for the requested cluster shape.
  const sim::ClusterSpec spec = sim::ClusterSpec::parse(gpus);
  if (threshold == 0) {
    const graph::PartitionStatsSweeper sweeper(edges);
    threshold = graph::suggest_threshold(sweeper, spec.total_gpus());
  }
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg =
      graph::build_distributed(edges, spec, threshold, &cluster);
  std::printf("partition: TH=%u  delegates=%s  |Enn|=%s  memory=%s\n",
              threshold, util::format_count(dg.num_delegates()).c_str(),
              util::format_count(dg.enn()).c_str(),
              util::format_bytes(dg.total_subgraph_bytes()).c_str());

  // 3. Run a direction-optimized BFS from a random source (under the chaos
  //    schedule when the fault flags are set; distances must come out
  //    identical either way -- the self-healing wire absorbs the faults).
  core::DistributedBfs bfs(dg, cluster, options);
  const VertexId source = bfs.sample_source(7);
  const core::BfsResult result = bfs.run(source);

  // 4. Validate and report.
  const auto report = core::validate_distances(edges, source, result.distances);
  std::printf("\nBFS from vertex %llu: %s\n",
              static_cast<unsigned long long>(source),
              report.ok ? "VALID" : report.error.c_str());
  std::printf("reached %s vertices, max depth %d, %d iterations (%d with "
              "delegate reduction)\n",
              util::format_count(report.reached).c_str(), report.max_depth,
              result.metrics.iterations,
              result.metrics.delegate_reduce_iterations);
  std::printf("workload: %s edges traversed (m' of Section IV-B)\n",
              util::format_count(result.metrics.edges_traversed).c_str());
  std::printf("modeled cluster time %.3f ms -> %.3f GTEPS  (measured here: "
              "%.1f ms)\n",
              result.metrics.modeled_ms, result.metrics.modeled_gteps,
              result.metrics.measured_ms);
  if (options.run.resilience.faults.enabled()) {
    std::printf("resilience: %zu injected faults, %llu retransmissions, "
                "%llu checksum rejects, %.3f ms recovery\n",
                result.metrics.fault.events.size(),
                static_cast<unsigned long long>(result.metrics.fault.retries),
                static_cast<unsigned long long>(
                    result.metrics.fault.corrupt_bins),
                static_cast<double>(result.metrics.fault.recovery_ns) / 1e6);
  }

  std::printf("\nper-iteration trace (first 10):\n");
  util::Table trace({"iter", "normal_frontier", "new_delegates",
                     "edges_traversed", "directions(dd,dn,nd)"});
  int shown = 0;
  for (const auto& it : result.metrics.per_iteration) {
    if (shown++ >= 10) break;
    std::string dirs;
    dirs += it.dd_backward ? 'B' : 'F';
    dirs += it.dn_backward ? 'B' : 'F';
    dirs += it.nd_backward ? 'B' : 'F';
    trace.row()
        .add(shown - 1)
        .add(it.frontier_normals)
        .add(it.new_delegates)
        .add(it.edges_traversed)
        .add(dirs);
  }
  trace.print(std::cout);
  return report.ok ? 0 : 1;
}
