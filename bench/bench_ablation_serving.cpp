// Saturation curve of the serving tier (core::QueryScheduler): offered
// arrival rate x lane budget (batch width) x mid-flight lane recycling on
// an RMAT graph.  Every configuration serves the same deterministic seeded
// arrival trace of single-source BFS queries; every served query's
// distances are validated bit for bit against baseline::serial_bfs.  The
// headline claim is the recycling ablation: at high offered load, re-seeding
// lanes the boundary they drain (recycle=on) must beat batch-drain
// admission (recycle=off, a new batch only once every lane finished) in
// modeled queries/sec.
//
// Exit status is non-zero when any query diverges from its serial
// reference, when recycling fails to win at the highest offered rate, or
// when a same-seed re-run is not bit-identical -- CI runs this on a tiny
// graph as a smoke test.
#include <iostream>
#include <map>
#include <vector>

#include "baseline/serial_bfs.hpp"
#include "bench_common.hpp"
#include "core/query_scheduler.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "util/cli.hpp"

namespace {

using namespace dsbfs;

struct ServeRecord {
  double rate = 0;
  std::size_t width = 0;
  bool recycle = false;
  std::size_t queries = 0;
  int iterations = 0;
  double modeled_ms = 0;
  double queries_per_sec = 0;
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;
  double wait_p95_ms = 0;
  double mean_occupancy = 0;
  std::uint64_t recycled_admissions = 0;
  std::uint64_t reseed_bytes = 0;
  bool valid = false;
};

void emit_json(std::ostream& os, const std::vector<ServeRecord>& runs,
               int scale, const sim::ClusterSpec& spec, std::uint64_t vertices,
               std::uint64_t edges, std::uint32_t threshold, bool all_checks) {
  os << "{\n  \"graph\": {\"scale\": " << scale << ", \"vertices\": "
     << vertices << ", \"edges\": " << edges << ", \"cluster\": \""
     << spec.num_ranks << "x" << spec.gpus_per_rank
     << "\", \"degree_threshold\": " << threshold << "},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ServeRecord& r = runs[i];
    os << "    {\"rate\": " << r.rate << ", \"width\": " << r.width
       << ", \"recycle\": " << (r.recycle ? "true" : "false")
       << ", \"queries\": " << r.queries
       << ", \"iterations\": " << r.iterations
       << ", \"modeled_ms\": " << r.modeled_ms
       << ", \"queries_per_sec\": " << r.queries_per_sec
       << ", \"latency_p50_ms\": " << r.latency_p50_ms
       << ", \"latency_p95_ms\": " << r.latency_p95_ms
       << ", \"latency_p99_ms\": " << r.latency_p99_ms
       << ", \"wait_p95_ms\": " << r.wait_p95_ms
       << ", \"mean_occupancy\": " << r.mean_occupancy
       << ", \"recycled_admissions\": " << r.recycled_admissions
       << ", \"reseed_bytes\": " << r.reseed_bytes
       << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
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
  const std::int64_t queries =
      cli.get_int("queries", 192, "arrival trace length");
  if (cli.help_requested()) {
    cli.print_help(
        "Serving saturation curve: arrival rate x width x lane recycling");
    return 0;
  }
  std::cerr << "serving: arrival rate x width x recycling on RMAT scale "
            << scale << ", cluster " << ranks << "x" << gpus << ", "
            << queries << " queries\n";

  sim::ClusterSpec spec;
  spec.num_ranks = ranks;
  spec.gpus_per_rank = gpus;
  const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 11});
  const graph::HostCsr host = graph::build_host_csr(g);
  const graph::DistributedGraph dg =
      graph::build_distributed(g, spec, static_cast<std::uint32_t>(th));
  sim::Cluster cluster(spec);

  // Serial oracle, memoized per distinct source (traces share a pool).
  std::map<VertexId, std::vector<Depth>> oracle;
  const auto serial_of = [&](VertexId source) -> const std::vector<Depth>& {
    auto it = oracle.find(source);
    if (it == oracle.end()) {
      it = oracle.emplace(source, baseline::serial_bfs(host, source)).first;
    }
    return it->second;
  };

  // 16 q/iter saturates both budgets (lambda*S >> W) while arrivals still
  // span many boundaries; far beyond that the trace collapses into a
  // closed batch (every query queued before the first wave drains), which
  // is batch-drain's home turf, not a serving workload.
  const std::vector<double> rates{0.25, 1.0, 4.0, 16.0};
  const std::vector<std::size_t> widths{8, 32};
  std::vector<ServeRecord> runs;
  bool ok = true;
  for (const double rate : rates) {
    const std::vector<core::QueryArrival> trace = core::make_arrival_trace(
        dg, {.queries = static_cast<std::uint64_t>(queries),
             .rate = rate,
             .pattern = core::ArrivalPattern::kUniform,
             .seed = 3});
    for (const std::size_t width : widths) {
      for (const bool recycle : {false, true}) {
        core::SchedulerOptions options;
        options.width = width;
        options.recycle = recycle;
        core::QueryScheduler scheduler(dg, cluster, options);
        const core::SchedulerOutcome out = scheduler.run(trace);

        ServeRecord rec;
        rec.rate = rate;
        rec.width = width;
        rec.recycle = recycle;
        rec.queries = out.metrics.queries;
        rec.iterations = out.metrics.run.iterations;
        rec.modeled_ms = out.metrics.run.modeled_ms;
        rec.queries_per_sec = out.metrics.queries_per_sec;
        rec.latency_p50_ms = out.metrics.latency.p50;
        rec.latency_p95_ms = out.metrics.latency.p95;
        rec.latency_p99_ms = out.metrics.latency.p99;
        rec.wait_p95_ms = out.metrics.wait.p95;
        rec.mean_occupancy = out.metrics.mean_occupancy;
        rec.recycled_admissions = out.metrics.recycled_admissions;
        rec.reseed_bytes = out.metrics.reseed_bytes;

        rec.valid = true;
        for (std::size_t i = 0; i < out.queries.size(); ++i) {
          if (out.queries[i].distances != serial_of(out.queries[i].source)) {
            std::cerr << "FAIL: rate " << rate << " width " << width
                      << " recycle " << recycle << " query " << i
                      << " (source " << out.queries[i].source
                      << ") diverged from serial BFS\n";
            rec.valid = false;
            ok = false;
          }
        }
        runs.push_back(rec);
      }
    }
  }

  // ---- the recycling claim -----------------------------------------------
  // At saturating rates the provisioned (widest) lane budget must serve
  // more queries per modeled second with mid-flight recycling than with
  // batch-drain admission: freed lanes go back to work instead of idling
  // until the slowest lane of the batch drains, and the last, partial
  // wave never holds the full width hostage.  The claim is asserted for
  // the widest budget only -- at narrow widths with a deep backlog every
  // drain wave is full and perfectly depth-synchronized, so its shared
  // row sweeps (the MS-BFS amortization) can outweigh the idle wave
  // tails; the JSON keeps those rows so the crossover stays visible.
  const std::size_t top_width = widths.back();
  for (const double rate : rates) {
    if (rate < 16.0) continue;  // saturating rates only: lambda*S >> W
    double qps_on = 0, qps_off = 0;
    for (const ServeRecord& r : runs) {
      if (r.rate != rate || r.width != top_width) continue;
      (r.recycle ? qps_on : qps_off) = r.queries_per_sec;
    }
    if (qps_on <= qps_off) {
      std::cerr << "FAIL: width " << top_width << " at rate " << rate
                << ": recycling " << qps_on
                << " queries/sec does not beat batch-drain " << qps_off
                << "\n";
      ok = false;
    }
  }

  // ---- same-seed determinism ---------------------------------------------
  // Re-serving the identical trace must reproduce the identical schedule
  // and modeled clock bit for bit.
  {
    const std::vector<core::QueryArrival> trace = core::make_arrival_trace(
        dg, {.queries = 24, .rate = 4.0,
             .pattern = core::ArrivalPattern::kBursty, .seed = 9});
    core::QueryScheduler scheduler(dg, cluster, {.width = 8});
    const core::SchedulerOutcome a = scheduler.run(trace);
    const core::SchedulerOutcome b = scheduler.run(trace);
    bool same = a.metrics.run.modeled_ms == b.metrics.run.modeled_ms &&
                a.events.size() == b.events.size();
    for (std::size_t i = 0; same && i < a.queries.size(); ++i) {
      same = a.queries[i].admit_iteration == b.queries[i].admit_iteration &&
             a.queries[i].retire_iteration == b.queries[i].retire_iteration &&
             a.queries[i].lane == b.queries[i].lane &&
             a.queries[i].latency_ms == b.queries[i].latency_ms;
    }
    if (!same) {
      std::cerr << "FAIL: same-seed re-run produced a different schedule\n";
      ok = false;
    }
  }

  if (ok) {
    std::cerr << "checks passed: every served query matches serial BFS,"
              << " recycling beats batch-drain at the widest budget under"
              << " saturation, and same-seed re-runs are bit-identical\n";
  }
  emit_json(std::cout, runs, scale, spec, dg.num_vertices(), dg.num_edges(),
            static_cast<std::uint32_t>(th), ok);
  return ok ? 0 : 1;
}
