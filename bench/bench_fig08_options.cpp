// Figure 8: effect of the DO / local-all2all (L) / uniquify (U) /
// blocking-vs-nonblocking-reduction (BR/IR) options on the per-phase time
// breakdown, on two hardware shapes.  (Paper: RMAT scale 32, TH 128, on
// 16x2x2 and 16x1x4; default here: scale 17, TH 32, on 2x2x2 and 2x1x4.)
// Every run's distances are checked bit-exact against the serial BFS; any
// divergence exits 1.
#include <iostream>

#include "bench_common.hpp"
#include "graph/rmat.hpp"
#include "util/table.hpp"

namespace {

struct OptionRow {
  const char* label;
  bool direction_optimized;
  bool local_all2all;
  bool uniquify;
  bool blocking;
};

constexpr OptionRow kRows[] = {
    {"(none)", false, false, false, true},
    {"DO", true, false, false, true},
    {"DO+L", true, true, false, true},
    {"DO+L+U", true, true, true, true},
    {"DO+IR", true, false, false, false},
    {"DO+L+U+IR", true, true, true, false},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 17, "RMAT scale"));
  const std::uint32_t th = static_cast<std::uint32_t>(
      cli.get_int("threshold", 32, "degree threshold"));
  const int sources = static_cast<int>(cli.get_int("sources", 4,
                                                   "BFS sources per point"));
  if (cli.help_requested()) {
    cli.print_help("Figure 8: option ablation with per-phase breakdown");
    return 0;
  }

  bench::print_banner("Figure 8 -- option ablation (DO, L, U, BR/IR)",
                      "Fig. 8: per-phase modeled time per option set");

  const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 1});
  const graph::HostCsr oracle = graph::build_host_csr(g);
  int diverged = 0;
  for (const std::string gpus : {"2x2x2", "2x1x4"}) {
    const sim::ClusterSpec spec = sim::ClusterSpec::parse(gpus);
    const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
    sim::Cluster cluster(spec);

    std::cout << "\nHardware " << gpus << " (paper: 16x2x2 / 16x1x4):\n";
    util::Table table({"options", "computation_ms", "local_comm_ms",
                       "remote_normal_ms", "remote_reduce_ms", "elapsed_ms"});
    for (const OptionRow& row : kRows) {
      core::BfsOptions options;
      options.direction_optimized = row.direction_optimized;
      options.local_all2all = row.local_all2all;
      options.run.uniquify = row.uniquify;
      options.reduce_mode = row.blocking ? comm::ReduceMode::kBlocking
                                         : comm::ReduceMode::kNonBlocking;
      const auto series =
          bench::run_series(dg, cluster, options, sources, 1, &oracle);
      if (series.diverged_runs > 0) {
        std::cerr << "FAIL: " << gpus << " " << row.label << ": "
                  << series.diverged_runs
                  << " run(s) diverge from the serial BFS\n";
        diverged += series.diverged_runs;
      }
      table.row()
          .add(row.label)
          .add(series.computation_ms, 3)
          .add(series.local_comm_ms, 3)
          .add(series.normal_exchange_ms, 3)
          .add(series.delegate_reduce_ms, 3)
          .add(series.modeled_ms.geomean(), 3);
    }
    table.print(std::cout);
  }
  std::cout << "\nExpected shape (paper Fig. 8): DO cuts computation ~3x;"
            << "\nL and U add a little local time without moving remote time"
            << "\n(TH is low, so few duplicates); IR makes the delegate"
            << "\nreduction markedly slower than BR at this rank count.\n";
  return diverged > 0 ? 1 : 0;
}
