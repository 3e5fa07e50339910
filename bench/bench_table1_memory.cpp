// Table I: memory usage of the degree-separated subgraph representation,
// against the paper's closed form 8n + 8dp + 4m + 4|Enn| (8-byte nn
// columns), the exact form of the stored layout 8n + 8dp + 4m + the ghost
// tables (4-byte nn ghost ids), and the conventional 16m edge list and
// 8n+8m CSR.
#include <iostream>

#include "bench_common.hpp"
#include "graph/partition_stats.hpp"
#include "graph/rmat.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 18, "RMAT scale"));
  const std::string gpus = cli.get_string("gpus", "1x2x2", "cluster NxRxG");
  if (cli.help_requested()) {
    cli.print_help("Table I: subgraph memory accounting");
    return 0;
  }

  bench::print_banner("Table I -- subgraph memory usage",
                      "Table I: 8n + 8dp + 4m + 4|Enn| vs edge list and CSR");
  // The subgraph bytes include the nn ghost tables (4-byte nn columns), so
  // "actual" sits near the exact form, below the paper's closed form when
  // nn targets repeat.

  const sim::ClusterSpec spec = sim::ClusterSpec::parse(gpus);
  const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 1});
  const graph::PartitionStatsSweeper sweeper(g);
  const std::uint32_t th =
      graph::suggest_threshold(sweeper, spec.total_gpus());
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);

  util::Table per({"subgraph", "rows", "edges", "bytes", "bytes_per_edge"});
  std::uint64_t nn_b = 0, nd_b = 0, dn_b = 0, dd_b = 0, ghost_b = 0;
  std::uint64_t nn_e = 0, nd_e = 0, dn_e = 0, dd_e = 0, ghosts = 0;
  for (int gi = 0; gi < spec.total_gpus(); ++gi) {
    const auto& lg = dg.local(gi);
    const auto m = lg.memory_usage();
    nn_b += m.nn_bytes;
    nd_b += m.nd_bytes;
    dn_b += m.dn_bytes;
    dd_b += m.dd_bytes;
    ghost_b += m.ghost_bytes;
    ghosts += lg.ghosts().count();
    nn_e += lg.nn().num_edges();
    nd_e += lg.nd().num_edges();
    dn_e += lg.dn().num_edges();
    dd_e += lg.dd().num_edges();
  }
  auto add_row = [&](const char* name, std::uint64_t rows, std::uint64_t edges,
                     std::uint64_t bytes) {
    per.row().add(name).add(rows).add(edges).add(bytes).add(
        edges ? static_cast<double>(bytes) / static_cast<double>(edges) : 0.0,
        2);
  };
  add_row("nn", dg.num_vertices(), nn_e, nn_b);
  add_row("nd", dg.num_vertices(), nd_e, nd_b);
  add_row("dn",
          static_cast<std::uint64_t>(dg.num_delegates()) *
              static_cast<std::uint64_t>(spec.total_gpus()),
          dn_e, dn_b);
  add_row("dd",
          static_cast<std::uint64_t>(dg.num_delegates()) *
              static_cast<std::uint64_t>(spec.total_gpus()),
          dd_e, dd_b);
  // Rows: distinct nn targets over all GPUs; edges: the nn edges they serve.
  add_row("nn ghosts", ghosts, nn_e, ghost_b);
  per.print(std::cout);

  const std::uint64_t actual = dg.total_subgraph_bytes();
  const std::uint64_t predicted = dg.table1_predicted_bytes();
  const std::uint64_t exact = predicted - 4 * dg.enn() + ghost_b;
  const std::uint64_t edge_list = g.storage_bytes();
  const std::uint64_t plain_csr = 8 * g.num_vertices + 8 * g.size();

  std::cout << "\nn=" << util::format_count(dg.num_vertices())
            << "  m=" << util::format_count(dg.num_edges())
            << "  d=" << util::format_count(dg.num_delegates())
            << "  |Enn|=" << util::format_count(dg.enn()) << "  TH=" << th
            << "  p=" << spec.total_gpus() << "\n\n";
  util::Table totals({"representation", "bytes", "vs_edge_list"});
  totals.row().add("degree-separated subgraphs (actual)")
      .add(util::format_bytes(actual))
      .add(static_cast<double>(actual) / static_cast<double>(edge_list), 3);
  totals.row().add("Table I closed form 8n+8dp+4m+4Enn")
      .add(util::format_bytes(predicted))
      .add(static_cast<double>(predicted) / static_cast<double>(edge_list), 3);
  totals.row().add("exact form 8n+8dp+4m+ghost tables")
      .add(util::format_bytes(exact))
      .add(static_cast<double>(exact) / static_cast<double>(edge_list), 3);
  totals.row().add("conventional edge list (16m)")
      .add(util::format_bytes(edge_list))
      .add(1.0, 3);
  totals.row().add("conventional CSR (8n+8m)")
      .add(util::format_bytes(plain_csr))
      .add(static_cast<double>(plain_csr) / static_cast<double>(edge_list), 3);
  totals.print(std::cout);
  std::cout << "\nExpected (paper Section III-C): about one third of the edge"
            << "\nlist, and a little more than half of the plain CSR.\n";
  return 0;
}
