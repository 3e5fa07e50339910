// Ablation of distributed delta-stepping SSSP: bucket width (delta) x
// two-stream overlap, on a stored-weight RMAT graph.  Delta is *the*
// delta-stepping knob -- small deltas approximate Dijkstra (many cheap
// buckets), large deltas approximate Bellman-Ford (few rounds, more
// re-relaxation), and `inf` is exactly the Bellman-Ford degenerate case --
// while the overlap column shows the engine's reduce || exchange pipeline
// carrying over to bucketed rounds unchanged.
//
// Validates every configuration bit-exactly against serial delta-stepping
// (baseline::serial_delta_sssp) *and* serial Bellman-Ford, checks the
// distributed bucket count against the serial oracle's (the processed-
// bucket set is deterministic), compares against the distributed
// Bellman-Ford core::sssp distances on the same graph, and asserts that
// finite-delta runs actually process multiple buckets -- a delta ablation
// that never leaves bucket 0 would be vacuous.  Emits a JSON report
// (stdout) with modeled cluster time, round/bucket counts, the light/heavy
// relaxation split and exchanged bytes; non-zero exit on any failed check.
// CI runs this on a tiny graph as a smoke test.
#include <iostream>
#include <string>
#include <vector>

#include "baseline/host_apps.hpp"
#include "bench_common.hpp"
#include "core/delta_sssp.hpp"
#include "core/sssp.hpp"
#include "graph/csr.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "util/cli.hpp"

namespace {

using namespace dsbfs;

struct RunRecord {
  std::uint64_t delta = 0;  // kInfiniteDistance printed as "inf"
  bool overlap = false;
  int iterations = 0;
  std::uint64_t buckets = 0;
  int light_iterations = 0;
  int heavy_iterations = 0;
  std::uint64_t light_relaxations = 0;
  std::uint64_t heavy_relaxations = 0;
  double modeled_ms = 0;
  std::uint64_t update_bytes_remote = 0;
  bool valid = false;
};

std::string delta_str(std::uint64_t delta) {
  return delta == kInfiniteDistance ? std::string("\"inf\"")
                                    : std::to_string(delta);
}

void emit_json(std::ostream& os, const std::vector<RunRecord>& runs,
               int scale, const sim::ClusterSpec& spec, std::uint64_t vertices,
               std::uint64_t edges, std::uint32_t threshold, bool all_checks) {
  os << "{\n  \"graph\": {\"scale\": " << scale << ", \"vertices\": "
     << vertices << ", \"edges\": " << edges << ", \"cluster\": \""
     << spec.num_ranks << "x" << spec.gpus_per_rank
     << "\", \"degree_threshold\": " << threshold << "},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    os << "    {\"delta\": " << delta_str(r.delta) << ", \"overlap\": "
       << (r.overlap ? "true" : "false") << ", \"iterations\": "
       << r.iterations << ", \"buckets\": " << r.buckets
       << ", \"light_iterations\": " << r.light_iterations
       << ", \"heavy_iterations\": " << r.heavy_iterations
       << ", \"light_relaxations\": " << r.light_relaxations
       << ", \"heavy_relaxations\": " << r.heavy_relaxations
       << ", \"modeled_ms\": " << r.modeled_ms << ", \"update_bytes_remote\": "
       << r.update_bytes_remote << ", \"valid\": "
       << (r.valid ? "true" : "false") << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"checks_passed\": " << (all_checks ? "true" : "false")
     << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int scale =
      static_cast<int>(cli.get_int("scale", 10, "RMAT graph scale"));
  const int ranks = static_cast<int>(cli.get_int("ranks", 2, "cluster ranks"));
  const int gpus = static_cast<int>(cli.get_int("gpus", 2, "GPUs per rank"));
  const std::int64_t th = cli.get_int("th", 16, "delegate degree threshold");
  const std::int64_t w_max =
      cli.get_int("max-weight", 24, "weight range [1, max-weight]");
  if (cli.help_requested()) {
    cli.print_help(
        "Ablation: delta-stepping SSSP bucket width x engine overlap, vs "
        "serial delta-stepping / Bellman-Ford oracles");
    return 0;
  }
  std::cerr << "ablation: delta-stepping delta x overlap on RMAT scale "
            << scale << ", cluster " << ranks << "x" << gpus
            << ", stored weights [1, " << w_max << "]\n";

  sim::ClusterSpec spec;
  spec.num_ranks = ranks;
  spec.gpus_per_rank = gpus;
  graph::EdgeList edges = graph::rmat_graph500({.scale = scale, .seed = 7});
  graph::assign_uniform_weights(edges, static_cast<std::uint32_t>(w_max),
                                /*seed=*/21);

  // RMAT label randomization leaves isolated vertices scattered across the
  // id space; start from the first connected vertex.
  VertexId source = 0;
  {
    const auto degrees = graph::out_degrees(edges);
    while (source < edges.num_vertices && degrees[source] == 0) ++source;
  }

  const graph::DistributedGraph dg =
      graph::build_distributed(edges, spec, static_cast<std::uint32_t>(th));
  sim::Cluster cluster(spec);
  const graph::WeightedHostCsr host = graph::build_weighted_host_csr(edges);
  const std::span<const std::uint32_t> weights(host.weights);
  const auto bellman_ford = baseline::serial_sssp(host.csr, weights, source);
  // The distributed Bellman-Ford on the same graph: delta-stepping must
  // reproduce its distances exactly (acceptance bar for the new workload).
  const core::SsspResult bf_dist =
      core::DistributedSssp(dg, cluster).run(source);

  // Bucket widths bracketing the mean stored weight (~w_max/2): Dijkstra-ish,
  // sub-mean, around the TUNING.md delta ~= mean-weight default, and the
  // Bellman-Ford degenerate case.
  const std::vector<std::uint64_t> deltas = {
      1, static_cast<std::uint64_t>(std::max<std::int64_t>(1, w_max / 4)),
      static_cast<std::uint64_t>(std::max<std::int64_t>(2, w_max / 2)),
      kInfiniteDistance};

  std::vector<RunRecord> runs;
  bool ok = true;
  if (bf_dist.distances != bellman_ford) {
    std::cerr << "FAIL: core::sssp diverged from serial Bellman-Ford\n";
    ok = false;
  }

  for (const std::uint64_t delta : deltas) {
    baseline::SerialDeltaStats stats;
    const auto oracle = baseline::serial_delta_sssp(host.csr, weights, source,
                                                    delta, &stats);
    if (oracle != bellman_ford) {
      std::cerr << "FAIL: serial delta-stepping (delta " << delta
                << ") diverged from serial Bellman-Ford\n";
      ok = false;
    }
    for (const bool overlap : {true, false}) {
      core::DeltaSsspOptions o;
      o.delta = delta;
      o.run.overlap = overlap;
      const core::DeltaSsspResult r =
          core::DistributedDeltaSssp(dg, cluster, o).run(source);
      RunRecord rec;
      rec.delta = delta;
      rec.overlap = overlap;
      rec.iterations = r.iterations;
      rec.buckets = r.buckets_processed;
      rec.light_iterations = r.light_iterations;
      rec.heavy_iterations = r.heavy_iterations;
      rec.light_relaxations = r.light_relaxations;
      rec.heavy_relaxations = r.heavy_relaxations;
      rec.modeled_ms = r.modeled_ms;
      rec.update_bytes_remote = r.update_bytes_remote;
      rec.valid = r.distances == oracle && r.distances == bf_dist.distances;
      if (!rec.valid) {
        std::cerr << "FAIL: delta-stepping (delta " << delta << ", overlap="
                  << overlap << ") diverged from the oracles\n";
        ok = false;
      }
      if (r.buckets_processed != stats.buckets_processed) {
        std::cerr << "FAIL: delta " << delta << " processed "
                  << r.buckets_processed << " buckets, serial oracle "
                  << stats.buckets_processed << "\n";
        ok = false;
      }
      runs.push_back(rec);
    }
    // The engine overlap must not hurt bucketed rounds either: same
    // ordering bench_ablation_exchange asserts for the flat value apps.
    const RunRecord& with = runs[runs.size() - 2];
    const RunRecord& without = runs[runs.size() - 1];
    if (with.modeled_ms >= without.modeled_ms) {
      std::cerr << "FAIL: delta " << delta
                << ": overlap did not improve modeled time (" << with.modeled_ms
                << " vs " << without.modeled_ms << " ms)\n";
      ok = false;
    }
  }

  // A delta ablation that never leaves bucket 0 is vacuous: every
  // finite-delta configuration must process multiple buckets, and the
  // degenerate delta exactly one.
  for (const RunRecord& r : runs) {
    if (r.delta != kInfiniteDistance && r.buckets < 2) {
      std::cerr << "FAIL: delta " << r.delta << " processed only " << r.buckets
                << " bucket(s); the sweep is vacuous at this scale\n";
      ok = false;
    }
    if (r.delta == kInfiniteDistance &&
        (r.buckets != 1 || r.heavy_relaxations != 0)) {
      std::cerr << "FAIL: infinite delta must degenerate to one bucket with "
                   "no heavy relaxations\n";
      ok = false;
    }
  }

  if (ok) {
    std::cerr << "checks passed: all delta x overlap configurations match "
                 "serial delta-stepping, serial Bellman-Ford and core::sssp; "
                 "bucket counts match the oracle; finite deltas process "
                 "multiple buckets; overlap improves modeled time\n";
  }
  emit_json(std::cout, runs, scale, spec,
            static_cast<std::uint64_t>(edges.num_vertices), edges.size(),
            static_cast<std::uint32_t>(th), ok);
  return ok ? 0 : 1;
}
