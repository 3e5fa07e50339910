// Table II: comparison with previous work.  The reference rows are the
// paper's published numbers (their hardware); the "this repo" rows are our
// modeled runs at reduced scale.  The meaningful comparison is per-GPU
// throughput ratio shape, not absolute numbers (see docs/ARCHITECTURE.md).
#include <iostream>

#include "bench_common.hpp"
#include "graph/partition_stats.hpp"
#include "graph/rmat.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 18, "RMAT scale"));
  const int sources = static_cast<int>(cli.get_int("sources", 4,
                                                   "BFS sources per point"));
  if (cli.help_requested()) {
    cli.print_help("Table II: comparison with previous work");
    return 0;
  }

  bench::print_banner("Table II -- comparison with previous work",
                      "Table II: reference systems vs this implementation");

  std::cout << "\nReference rows (as published; the paper's Table II):\n";
  util::Table ref({"system", "scale", "hardware", "network", "GTEPS",
                   "GTEPS_per_proc"});
  ref.row().add("Pan [5] single-node").add(26).add("1x1x4 P100")
      .add("single node").add(46.1, 1).add(11.5, 2);
  ref.row().add("This paper (Pan 2018)").add(33).add("31x2x2 P100")
      .add("EDR 100Gbps FatTree").add(259.8, 1).add(2.1, 2);
  ref.row().add("Bernaschi [18]").add(33).add("4096x1x1 K20X")
      .add("Dragonfly 100Gbps").add(828.39, 1).add(0.2, 2);
  ref.row().add("Krajecki [20]").add(29).add("64x1x1 K20Xm")
      .add("FatTree 10Gbps").add(13.7, 1).add(0.21, 2);
  ref.row().add("Yasui [9] CPU").add(33).add("128 Xeon E5-4650v2")
      .add("shared memory").add(174.7, 1).add(1.36, 2);
  ref.row().add("Buluc [16] CPU").add(33).add("1024 Xeon E5-2695v2")
      .add("Dragonfly 64Gbps").add(240.0, 1).add(0.23, 2);
  ref.print(std::cout);

  std::cout << "\nThis repository (modeled P100/EDR cluster, reduced scale "
            << scale << "):\n";
  util::Table ours({"config", "gpus", "TH", "DOBFS_GTEPS", "GTEPS_per_gpu"});
  const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 1});
  for (const std::string gpus : {"1x1x1", "1x1x4", "2x2x2", "4x2x2"}) {
    const sim::ClusterSpec spec = sim::ClusterSpec::parse(gpus);
    const graph::PartitionStatsSweeper sweeper(g);
    const std::uint32_t th =
        graph::suggest_threshold(sweeper, spec.total_gpus());
    const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
    sim::Cluster cluster(spec);
    const auto series = bench::run_series(dg, cluster, {}, sources);
    const double gteps = series.modeled_gteps.geomean();
    ours.row()
        .add(gpus)
        .add(spec.total_gpus())
        .add(static_cast<std::uint64_t>(th))
        .add(gteps, 3)
        .add(gteps / spec.total_gpus(), 3);
  }
  ours.print(std::cout);
  std::cout << "\nExpected shape (paper Table II): per-GPU throughput well"
            << "\nabove the K20X-era GPU clusters (~10x Bernaschi per GPU)"
            << "\nand competitive with the best shared-memory CPU results,"
            << "\nwith single-node rates a little below Gunrock's.\n";
  return 0;
}
