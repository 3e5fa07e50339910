// Chaos ablation of the robustness substrate: the seeded fault-injection
// plan (sim::FaultPlan), the self-healing checksummed/NACK wire protocol in
// comm::exchange, and the engine's epoch checkpoint + rollback recovery.
//
// Three claims are asserted, per algorithm (BFS with its Graph500 tree,
// batched BFS at W = 64, SSSP, delta-stepping SSSP, CC, PageRank):
//
//   1. zero-cost-when-disabled: a run with the resilience machinery armed
//      (non-default retry policy) but every fault rate zero and
//      checkpointing off reproduces the clean run *exactly* -- same
//      iterations, same modeled time, same wire bytes, all recovery
//      counters zero;
//   2. self-healing: under a hostile schedule (drop + corrupt + duplicate +
//      delay on every data-plane link, one transient stall, one mid-run
//      permanent GPU failure) the final answer is bit-identical to the
//      clean run, which itself is checked against the serial oracles (the
//      BFS tree, computed by one exchange round after the loop, against
//      the Graph500 tree validator);
//   3. recovery is visible and charged: the hostile run logs injected
//      faults, requests retransmissions, rolls back at least once, replays
//      iterations, and its modeled time strictly exceeds the clean run's.
//
// A fault-rate x retry-policy x checkpoint-cadence sweep (BFS + SSSP) is
// emitted as JSON (stdout) for tuning plots.  Exit status is non-zero when
// any check fails -- CI runs this on a tiny graph as the chaos smoke test.
//
//   ./bench_ablation_faults [--scale=9] [--ranks=2] [--gpus=2] [--th=16]
//                           [--fault-seed=1] [--fault-drop-rate=...]
//                           [--fault-corrupt-rate=...]
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "baseline/host_apps.hpp"
#include "baseline/serial_bfs.hpp"
#include "bench_common.hpp"
#include "core/batch_bfs.hpp"
#include "core/bfs.hpp"
#include "core/components.hpp"
#include "core/delta_sssp.hpp"
#include "core/pagerank.hpp"
#include "core/sssp.hpp"
#include "core/validate.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "util/cli.hpp"

namespace {

using namespace dsbfs;

struct RunRecord {
  std::string algo;
  std::string mode;   // clean | armed | chaos | sweep
  std::string retry;  // default | tight
  double drop_rate = 0, corrupt_rate = 0;
  bool gpu_failure = false;
  int cadence = 0;
  int iterations = 0;
  double modeled_ms = 0;
  std::uint64_t update_bytes = 0;  // cross-rank exchange payload
  sim::FaultReport fault;  // the run's log and recovery totals
  bool valid = false;  // bit-exact vs the clean run (clean: vs the oracle)
};

/// Everything a faulty run must reproduce bit for bit.
struct CleanRef {
  std::vector<Depth> bfs;
  std::vector<VertexId> bfs_parents;
  std::vector<std::vector<Depth>> batch;
  std::vector<std::uint64_t> sssp;
  std::vector<std::uint64_t> delta;
  std::vector<VertexId> cc;
  std::vector<double> pr;
  // Per-algo clean iteration counts / modeled times / wire bytes for the
  // zero-cost and time-ordering checks, keyed like kAlgos.
  std::vector<int> iterations;
  std::vector<double> modeled_ms;
  std::vector<std::uint64_t> update_bytes;
};

const std::vector<std::string> kAlgos = {"bfs",   "batch64", "sssp",
                                         "delta", "cc",      "pagerank"};

/// One algorithm run under one resilience config, reduced to a RunRecord.
/// `clean` is null only for the clean pass itself (validity then means
/// "matches the serial oracle").
struct Harness {
  const graph::EdgeList& edges;
  const graph::DistributedGraph& dg;
  sim::Cluster& cluster;
  VertexId source;
  std::vector<VertexId> batch_sources;
  // Serial oracles.
  std::vector<Depth> serial_bfs;
  std::vector<std::vector<Depth>> serial_batch;
  std::vector<std::uint64_t> serial_sssp;
  std::vector<std::uint64_t> serial_delta;
  std::vector<VertexId> serial_cc;
  std::vector<double> serial_pr;

  RunRecord run(std::size_t ai, const sim::ResilienceOptions& res,
                CleanRef* clean, CleanRef* fill) const {
    const std::string& algo = kAlgos[ai];
    RunRecord rec;
    rec.algo = algo;
    rec.drop_rate = res.faults.drop_rate;
    rec.corrupt_rate = res.faults.corrupt_rate;
    rec.gpu_failure = res.faults.failure_planned();
    rec.cadence = res.checkpoint_interval;

    // Takes a core::RunMetrics (BFS family) or a value-family result.
    const auto fold = [&rec](const auto& report) {
      rec.iterations = report.iterations;
      rec.modeled_ms = report.modeled_ms;
      if constexpr (requires { report.exchange_remote_bytes; }) {
        rec.update_bytes = report.exchange_remote_bytes;
      } else {
        rec.update_bytes = report.update_bytes_remote;
      }
      rec.fault = report.fault;
    };

    if (algo == "bfs") {
      core::BfsOptions o;
      o.compute_parents = true;
      o.run.resilience = res;
      const core::BfsResult r = core::DistributedBfs(dg, cluster, o).run(source);
      fold(r.metrics);
      rec.valid =
          clean ? r.distances == clean->bfs && r.parents == clean->bfs_parents
                : r.distances == serial_bfs &&
                      core::validate_parents(edges, source, r.distances,
                                             r.parents)
                          .ok;
      if (fill) {
        fill->bfs = r.distances;
        fill->bfs_parents = r.parents;
      }
    } else if (algo == "batch64") {
      core::BfsOptions o{.direction_optimized = false};
      o.run.uniquify = true;
      o.run.resilience = res;
      const core::BatchBfsResult r =
          core::DistributedBatchBfs(dg, cluster, o).run(batch_sources);
      fold(r.metrics);
      rec.valid =
          clean ? r.distances == clean->batch : r.distances == serial_batch;
      if (fill) fill->batch = r.distances;
    } else if (algo == "sssp") {
      core::SsspOptions o;
      o.run.resilience = res;
      const core::SsspResult r = core::DistributedSssp(dg, cluster, o).run(source);
      fold(r);
      rec.valid =
          clean ? r.distances == clean->sssp : r.distances == serial_sssp;
      if (fill) fill->sssp = r.distances;
    } else if (algo == "delta") {
      core::DeltaSsspOptions o;
      o.run.resilience = res;
      const core::DeltaSsspResult r =
          core::DistributedDeltaSssp(dg, cluster, o).run(source);
      fold(r);
      rec.valid =
          clean ? r.distances == clean->delta : r.distances == serial_delta;
      if (fill) fill->delta = r.distances;
    } else if (algo == "cc") {
      core::CcOptions o;
      o.run.resilience = res;
      const core::CcResult r = core::ConnectedComponents(dg, cluster, o).run();
      fold(r);
      rec.valid = clean ? r.labels == clean->cc : r.labels == serial_cc;
      if (fill) fill->cc = r.labels;
    } else {  // pagerank
      core::PagerankOptions o;
      o.max_iterations = 10;
      o.tolerance = 0.0;  // fixed work so every config is comparable
      o.run.resilience = res;
      const core::PagerankResult r =
          core::DistributedPagerank(dg, cluster, o).run();
      fold(r);
      if (clean) {
        // Bit-identical doubles: the self-healing wire delivers the exact
        // payloads a clean run would, so even FP sums must not move.
        rec.valid = r.ranks == clean->pr;
      } else {
        bool ok = r.ranks.size() == serial_pr.size();
        for (std::size_t v = 0; ok && v < serial_pr.size(); ++v) {
          ok = std::abs(r.ranks[v] - serial_pr[v]) < 1e-6;
        }
        rec.valid = ok;
      }
      if (fill) fill->pr = r.ranks;
    }
    if (fill) {
      fill->iterations.push_back(rec.iterations);
      fill->modeled_ms.push_back(rec.modeled_ms);
      fill->update_bytes.push_back(rec.update_bytes);
    }
    return rec;
  }
};

void emit_json(std::ostream& os, const std::vector<RunRecord>& runs, int scale,
               const sim::ClusterSpec& spec, bool all_checks) {
  os << "{\n  \"graph\": {\"scale\": " << scale << ", \"cluster\": \""
     << spec.num_ranks << "x" << spec.gpus_per_rank << "\"},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    os << "    {\"algo\": \"" << r.algo << "\", \"mode\": \"" << r.mode
       << "\", \"retry\": \"" << r.retry << "\", \"drop_rate\": " << r.drop_rate
       << ", \"corrupt_rate\": " << r.corrupt_rate << ", \"gpu_failure\": "
       << (r.gpu_failure ? "true" : "false") << ", \"cadence\": " << r.cadence
       << ", \"iterations\": " << r.iterations << ", \"modeled_ms\": "
       << r.modeled_ms << ", \"update_bytes\": " << r.update_bytes
       << ", \"faults\": " << r.fault.events.size()
       << ", \"retries\": " << r.fault.retries
       << ", \"rejects\": " << r.fault.corrupt_bins
       << ", \"recovery_ns\": " << r.fault.recovery_ns
       << ", \"checkpoints\": " << r.fault.checkpoints
       << ", \"rollbacks\": " << r.fault.rollbacks
       << ", \"replayed\": " << r.fault.replayed_iterations
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
      static_cast<int>(cli.get_int("scale", 9, "RMAT graph scale"));
  const int ranks = static_cast<int>(cli.get_int("ranks", 2, "cluster ranks"));
  const int gpus = static_cast<int>(cli.get_int("gpus", 2, "GPUs per rank"));
  const std::int64_t th = cli.get_int("th", 16, "delegate degree threshold");
  const sim::ResilienceOptions user = bench::parse_fault_cli(cli);
  if (cli.help_requested()) {
    cli.print_help(
        "Chaos ablation: fault rate x retry policy x checkpoint cadence");
    return 0;
  }
  std::cerr << "chaos ablation on RMAT scale " << scale << ", cluster "
            << ranks << "x" << gpus << ", fault seed " << user.faults.seed
            << "\n";

  sim::ClusterSpec spec;
  spec.num_ranks = ranks;
  spec.gpus_per_rank = gpus;
  const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 7});
  const graph::HostCsr host = graph::build_host_csr(g);
  const graph::DistributedGraph dg =
      graph::build_distributed(g, spec, static_cast<std::uint32_t>(th));
  sim::Cluster cluster(spec);

  Harness h{g, dg, cluster, /*source=*/3, {}, {}, {}, {}, {}, {}, {}};
  {
    core::DistributedBfs sampler(dg, cluster);
    for (std::uint64_t k = 0; k < 64; ++k) {
      h.batch_sources.push_back(sampler.sample_source(k));
    }
  }
  h.serial_bfs = baseline::serial_bfs(host, h.source);
  for (const VertexId s : h.batch_sources) {
    h.serial_batch.push_back(baseline::serial_bfs(host, s));
  }
  h.serial_sssp = baseline::serial_sssp(host, h.source);
  h.serial_delta = baseline::serial_delta_sssp(host, h.source, /*delta=*/8);
  h.serial_cc = baseline::serial_components(host);
  h.serial_pr = baseline::serial_pagerank(
      host, {.damping = 0.85, .max_iterations = 10, .tolerance = 0.0});

  bool ok = true;
  std::vector<RunRecord> runs;
  const auto fail = [&ok](const std::string& what) {
    std::cerr << "FAIL: " << what << "\n";
    ok = false;
  };

  // ---- clean pass: the reference, checked against the serial oracles ------
  CleanRef clean;
  for (std::size_t ai = 0; ai < kAlgos.size(); ++ai) {
    RunRecord r = h.run(ai, {}, nullptr, &clean);
    r.mode = "clean";
    r.retry = "default";
    if (!r.valid) fail(r.algo + " clean run diverged from the serial oracle");
    runs.push_back(std::move(r));
  }

  // ---- zero-cost-when-disabled: armed machinery, zero rates ---------------
  // A deliberately non-default retry policy proves the knobs are dormant on
  // a clean transport: nothing below may move relative to the clean pass.
  sim::ResilienceOptions armed;
  armed.faults.seed = user.faults.seed + 17;
  armed.retry = {.max_attempts = 3,
                 .timeout_ns = 1'000'000,
                 .backoff = 1.5,
                 .max_backoff_ns = 8'000'000};
  for (std::size_t ai = 0; ai < kAlgos.size(); ++ai) {
    RunRecord r = h.run(ai, armed, &clean, nullptr);
    r.mode = "armed";
    r.retry = "tight";
    if (!r.valid) fail(r.algo + " armed run changed the result");
    if (r.iterations != clean.iterations[ai] ||
        r.modeled_ms != clean.modeled_ms[ai] ||
        r.update_bytes != clean.update_bytes[ai]) {
      fail(r.algo + " armed-but-disabled run is not zero-cost (iterations/"
                    "modeled_ms/update_bytes moved)");
    }
    const sim::FaultReport& f = r.fault;
    if (!f.events.empty() || f.retries || f.corrupt_bins || f.recovery_ns ||
        f.checkpoints || f.rollbacks || f.replayed_iterations) {
      fail(r.algo + " armed-but-disabled run charged recovery work");
    }
    runs.push_back(std::move(r));
  }

  // ---- full chaos: hostile wire + straggler + mid-run GPU failure ---------
  sim::ResilienceOptions chaos;
  chaos.faults.seed = user.faults.seed;
  chaos.faults.drop_rate = user.faults.drop_rate > 0 ? user.faults.drop_rate
                                                     : 0.025;
  chaos.faults.corrupt_rate =
      user.faults.corrupt_rate > 0 ? user.faults.corrupt_rate : 0.02;
  chaos.faults.duplicate_rate = 0.01;
  chaos.faults.delay_rate = 0.01;
  chaos.faults.stall_gpu = 1;
  chaos.faults.stall_iteration = 1;
  chaos.faults.stall_ns = 200'000;
  chaos.faults.fail_gpu = 1;
  chaos.faults.fail_iteration = 2;
  chaos.checkpoint_interval = 2;
  for (std::size_t ai = 0; ai < kAlgos.size(); ++ai) {
    RunRecord r = h.run(ai, chaos, &clean, nullptr);
    r.mode = "chaos";
    r.retry = "default";
    if (!r.valid) fail(r.algo + " chaos run is not bit-exact vs clean");
    if (r.fault.events.empty() || r.fault.retries + r.fault.corrupt_bins == 0) {
      fail(r.algo + " chaos run logged no faults / requested no retransmits");
    }
    if (r.fault.rollbacks < 1 || r.fault.replayed_iterations < 1 ||
        r.fault.checkpoints < 1) {
      fail(r.algo + " chaos run did not checkpoint/rollback/replay");
    }
    if (!(r.modeled_ms > clean.modeled_ms[ai])) {
      fail(r.algo + " chaos recovery was not charged to the modeled time");
    }
    runs.push_back(std::move(r));
  }

  // ---- sweep: fault rate x retry policy x checkpoint cadence --------------
  const sim::RetryPolicy kTight{.max_attempts = 16,
                                .timeout_ns = 1'000'000,
                                .backoff = 1.5,
                                .max_backoff_ns = 8'000'000};
  for (const double rate : {0.01, 0.05}) {
    for (const bool tight : {false, true}) {
      for (const int cadence : {0, 3}) {
        sim::ResilienceOptions res;
        res.faults.seed = user.faults.seed;
        res.faults.drop_rate = rate / 2;
        res.faults.corrupt_rate = rate / 2;
        if (tight) res.retry = kTight;
        res.checkpoint_interval = cadence;
        for (const std::size_t ai : {std::size_t{0}, std::size_t{2}}) {
          RunRecord r = h.run(ai, res, &clean, nullptr);
          r.mode = "sweep";
          r.retry = tight ? "tight" : "default";
          if (!r.valid) {
            fail(r.algo + " sweep run diverged (rate=" + std::to_string(rate) +
                 " cadence=" + std::to_string(cadence) + ")");
          }
          runs.push_back(std::move(r));
        }
      }
    }
  }
  // The 5% sweep points must actually exercise the hardened wire.
  std::uint64_t sweep_faults = 0;
  for (const RunRecord& r : runs) {
    if (r.mode == "sweep" && r.drop_rate + r.corrupt_rate >= 0.04) {
      sweep_faults += r.fault.events.size();
    }
  }
  if (sweep_faults == 0) fail("5% sweep points injected no faults at all");

  if (ok) {
    std::cerr << "checks passed: disabled resilience is zero-cost, every"
              << " hostile run (up to 5% drop+corrupt, straggler, mid-run GPU"
              << " loss) is bit-exact vs the clean oracle-checked run, and"
              << " recovery work is logged and charged\n";
  }
  emit_json(std::cout, runs, scale, spec, ok);
  return ok ? 0 : 1;
}
