// Figure 9: weak scaling -- a fixed RMAT scale per GPU while the GPU count
// grows, for the *x2x2 and *x1x4 shapes, BFS and DOBFS.  (Paper: scale 26
// per GPU up to 124 GPUs, peaking at 259.8 GTEPS; default here: scale 16
// per GPU up to 16 GPUs.)  Exits 1 unless DOBFS models more GTEPS than BFS
// on every row, the paper's ordering.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "graph/partition_stats.hpp"
#include "graph/rmat.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int per_gpu = static_cast<int>(
      cli.get_int("scale_per_gpu", 16, "RMAT scale per GPU"));
  const int max_gpus =
      static_cast<int>(cli.get_int("max_gpus", 16, "largest GPU count"));
  const int sources = static_cast<int>(cli.get_int("sources", 4,
                                                   "BFS sources per point"));
  if (cli.help_requested()) {
    cli.print_help("Figure 9: weak scaling of BFS and DOBFS");
    return 0;
  }

  bench::print_banner("Figure 9 -- weak scaling (scale-" +
                          std::to_string(per_gpu) + " RMAT per GPU)",
                      "Fig. 9: GTEPS vs GPUs, 2x2 and 1x4 shapes, BFS+DOBFS");

  util::Table table({"gpus", "shape", "scale", "TH", "BFS_GTEPS",
                     "DOBFS_GTEPS", "DOBFS_ms"});
  int dobfs_behind = 0;  // rows where DOBFS does not beat BFS
  for (int p = 1; p <= max_gpus; p *= 2) {
    int scale = per_gpu;
    for (int x = p; x > 1; x /= 2) ++scale;
    const graph::EdgeList g =
        graph::rmat_graph500({.scale = scale, .seed = 1});
    const graph::PartitionStatsSweeper sweeper(g);
    const std::uint32_t th = graph::suggest_threshold(sweeper, p);

    // Two hardware shapes at the same GPU count, as in the paper.
    std::vector<sim::ClusterSpec> shapes;
    if (p >= 4) {
      sim::ClusterSpec s22;  // ranks of 2 GPUs, 2 ranks per node
      s22.num_ranks = p / 2;
      s22.gpus_per_rank = 2;
      s22.ranks_per_node = 2;
      shapes.push_back(s22);
    }
    {
      sim::ClusterSpec s14;  // one rank of up to 4 GPUs per node
      s14.gpus_per_rank = p < 4 ? p : 4;
      s14.num_ranks = p / s14.gpus_per_rank;
      s14.ranks_per_node = 1;
      shapes.push_back(s14);
    }

    for (const sim::ClusterSpec& spec : shapes) {
      const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
      sim::Cluster cluster(spec);

      core::BfsOptions plain;
      plain.direction_optimized = false;
      const auto bfs = bench::run_series(dg, cluster, plain, sources);
      core::BfsOptions dopt;
      const auto dobfs = bench::run_series(dg, cluster, dopt, sources);
      if (!(dobfs.modeled_gteps.geomean() > bfs.modeled_gteps.geomean())) {
        std::cerr << "FAIL: " << spec.to_string() << " scale " << scale
                  << ": DOBFS " << dobfs.modeled_gteps.geomean()
                  << " GTEPS is not above BFS "
                  << bfs.modeled_gteps.geomean() << "\n";
        ++dobfs_behind;
      }

      table.row()
          .add(p)
          .add(spec.to_string())
          .add(scale)
          .add(static_cast<std::uint64_t>(th))
          .add(bfs.modeled_gteps.geomean(), 3)
          .add(dobfs.modeled_gteps.geomean(), 3)
          .add(dobfs.modeled_ms.geomean(), 3);
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape (paper Fig. 9): close-to-linear growth of"
            << "\naggregate GTEPS with GPU count for both shapes; DOBFS above"
            << "\nBFS by a large factor throughout.\n";
  return dobfs_behind > 0 ? 1 : 0;
}
