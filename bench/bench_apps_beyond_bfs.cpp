// Section VI-D: "for large scale-free graphs, the increases in computation
// and communication are roughly in the same order, and our computation and
// communication models should still be scalable" for applications beyond
// BFS.  This bench runs connected components, PageRank and SSSP (delegate
// values reduced globally, normal values exchanged point-to-point -- all
// three sharing the IterativeEngine driver) along a small weak-scaling
// curve next to DOBFS.  Every answer is checked against the serial
// references (CC labels and SSSP distances bit-exact, PageRank within
// 1e-9); any divergence exits non-zero.
#include <cmath>
#include <iostream>

#include "baseline/host_apps.hpp"
#include "bench_common.hpp"
#include "core/components.hpp"
#include "core/pagerank.hpp"
#include "core/sssp.hpp"
#include "graph/partition_stats.hpp"
#include "graph/rmat.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int base = static_cast<int>(
      cli.get_int("base_scale", 14, "scale on a single GPU"));
  const int steps = static_cast<int>(cli.get_int("steps", 4, "scaling steps"));
  if (cli.help_requested()) {
    cli.print_help("Applications beyond BFS (Section VI-D): CC and PageRank");
    return 0;
  }
  bench::print_banner("Applications beyond BFS -- CC, PageRank and SSSP",
                      "Section VI-D: value-carrying delegates generalize");

  util::Table table({"scale", "gpus", "DOBFS_ms", "CC_ms", "CC_iters",
                     "PR_ms_per_iter", "PR_reduce_bytes", "PR_update_bytes",
                     "SSSP_ms", "SSSP_iters"});
  bool ok = true;
  const auto check = [&ok](bool valid, const char* what, int scale) {
    if (!valid) {
      std::cerr << "FAIL: " << what << " diverges from the serial reference"
                << " at scale " << scale << "\n";
      ok = false;
    }
  };
  for (int step = 0; step < steps; ++step) {
    const int scale = base + step;
    const int p = 1 << step;
    sim::ClusterSpec spec;
    spec.gpus_per_rank = p >= 2 ? 2 : 1;
    spec.num_ranks = p / spec.gpus_per_rank;
    spec.ranks_per_node = p >= 4 ? 2 : 1;

    const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 1});
    const graph::PartitionStatsSweeper sweeper(g);
    const std::uint32_t th = graph::suggest_threshold(sweeper, p);
    const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
    sim::Cluster cluster(spec);
    const graph::HostCsr host = graph::build_host_csr(g);

    const auto bfs = bench::run_series(dg, cluster, {}, 3);

    core::ConnectedComponents cc(dg, cluster);
    const core::CcResult ccr = cc.run();
    check(ccr.labels == baseline::serial_components(host), "CC", scale);

    core::PagerankOptions pr_options;
    pr_options.max_iterations = 10;  // fixed work per point
    pr_options.tolerance = 0.0;
    core::DistributedPagerank pr(dg, cluster, pr_options);
    const core::PagerankResult prr = pr.run();
    const std::vector<double> serial_pr = baseline::serial_pagerank(
        host, {.damping = pr_options.damping,
               .max_iterations = pr_options.max_iterations,
               .tolerance = pr_options.tolerance});
    bool pr_valid = prr.ranks.size() == serial_pr.size();
    for (std::size_t v = 0; pr_valid && v < serial_pr.size(); ++v) {
      pr_valid = std::abs(prr.ranks[v] - serial_pr[v]) <= 1e-9;
    }
    check(pr_valid, "PageRank", scale);

    // A sampled source has an out-edge, so every point traverses something.
    const VertexId source = core::sample_traversal_source(dg, 0);
    core::DistributedSssp sssp(dg, cluster);
    const core::SsspResult sr = sssp.run(source);
    check(sr.distances == baseline::serial_sssp(host, source), "SSSP", scale);

    table.row()
        .add(scale)
        .add(p)
        .add(bfs.modeled_ms.geomean(), 3)
        .add(ccr.modeled_ms, 3)
        .add(ccr.iterations)
        .add(prr.modeled_ms / prr.iterations, 3)
        .add(prr.reduce_bytes)
        .add(prr.update_bytes_remote)
        .add(sr.modeled_ms, 3)
        .add(sr.iterations);
  }
  table.print(std::cout);
  std::cout << "\nExpected (paper Section VI-D): per-iteration times grow"
            << "\nslowly along the curve; delegate reductions now move d x 8"
            << "\nbytes (values) instead of d/8 (bits), and updates carry"
            << "\n12-byte (id, value) pairs -- computation and communication"
            << "\ngrow in the same order, so the model remains scalable.\n";
  return ok ? 0 : 1;
}
