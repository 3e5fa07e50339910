// Figure 12: edge/delegate distribution vs degree threshold on the
// Friendster social graph.  The original dataset (66M users, 5.17G edges
// after doubling, ~half the vertices isolated) is replaced by a synthetic
// Chung-Lu graph with the same shape (docs/ARCHITECTURE.md, "Synthetic
// stand-ins for the datasets").
#include <iostream>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/partition_stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int scale = static_cast<int>(
      cli.get_int("scale", 18, "log2 of synthetic friendster vertices"));
  if (cli.help_requested()) {
    cli.print_help("Figure 12: friendster-like TH sweep (distribution)");
    return 0;
  }
  bench::print_banner("Figure 12 -- friendster-like threshold sweep",
                      "Fig. 12: dd/dn+nd/nn and delegate percentages vs TH");

  const graph::EdgeList g =
      graph::friendster_like({.scale = scale, .seed = 1});
  const auto degrees = graph::out_degrees(g);
  std::cout << "Synthetic friendster: n=" << util::format_count(g.num_vertices)
            << " m=" << util::format_count(g.size()) << " isolated="
            << util::format_count(graph::count_zero_degree(degrees)) << "\n\n";

  const graph::PartitionStatsSweeper sweeper(g);
  util::Table table({"TH", "dd_edges_pct", "dn_nd_edges_pct", "nn_edges_pct",
                     "delegates_pct"});
  for (const std::uint32_t th : bench::sqrt2_ladder(16, 256)) {
    const graph::PartitionStats s = sweeper.at(th);
    table.row()
        .add(static_cast<std::uint64_t>(th))
        .add(s.dd_pct(), 2)
        .add(s.dn_nd_pct(), 2)
        .add(s.nn_pct(), 2)
        .add(s.delegate_pct(), 4);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape (paper Fig. 12): similar to RMAT -- a wide"
            << "\nrange of suitable TH values ([16, 128] in the paper) with"
            << "\nfew delegates and a modest nn share.\n";
  return 0;
}
