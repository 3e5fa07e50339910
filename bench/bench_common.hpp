#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

/// Shared harness pieces for the figure/table reproduction benches.
///
/// Reporting protocol follows the paper (Section VI-A3): several BFS runs
/// from deterministic pseudo-random sources, runs that finish in <= 1
/// iteration are discarded, and the geometric mean of traversal rates is
/// reported.  Rates come in two flavours: *modeled* GTEPS (the simulated
/// P100/EDR cluster -- comparable to the paper's numbers in shape) and
/// *measured* GTEPS (this machine's wall clock -- only meaningful for
/// comparisons at equal scale).
namespace dsbfs::bench {

struct SeriesResult {
  util::Summary modeled_gteps;
  util::Summary measured_gteps;
  util::Summary modeled_ms;
  /// Breakdown averages across counted runs (modeled ms).
  double computation_ms = 0;
  double local_comm_ms = 0;
  double normal_exchange_ms = 0;
  double delegate_reduce_ms = 0;
  double mean_iterations = 0;
  double mean_reduce_iterations = 0;
  int counted_runs = 0;
  int skipped_runs = 0;
  /// Runs whose distances differ from the serial oracle (0 without one).
  int diverged_runs = 0;
};

/// Run `sources` BFS traversals with the paper's discard rule.  Given an
/// `oracle` (the graph's host CSR), every run's distances, discarded runs
/// included, are checked bit-exact against baseline::serial_bfs.
SeriesResult run_series(const graph::DistributedGraph& graph,
                        sim::Cluster& cluster, const core::BfsOptions& options,
                        int sources, std::uint64_t source_seed = 1,
                        const graph::HostCsr* oracle = nullptr);

/// Standard bench preamble: prints the binary's purpose and the paper
/// artifact it reproduces.
void print_banner(const std::string& title, const std::string& paper_ref);

/// Round x to the nearest integer in a sqrt(2)-spaced threshold ladder.
std::vector<std::uint32_t> sqrt2_ladder(std::uint32_t lo, std::uint32_t hi);

/// Declare the shared chaos flags (--fault-seed, --fault-drop-rate,
/// --fault-corrupt-rate) on `cli` and fold them into a resilience config.
/// All-zero rates (the defaults) leave the transport clean, so a binary
/// taking these flags costs nothing unless they are set.
sim::ResilienceOptions parse_fault_cli(util::Cli& cli);

}  // namespace dsbfs::bench
