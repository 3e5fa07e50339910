// Ablation of the batched multi-source BFS (MS-BFS lanes): batch width x
// two-stream overlap x wire compression on an RMAT graph, plus a traversal
// direction axis (forced push vs the union-frontier hybrid) at W in
// {1, 32, 64}.  Every lane of every configuration is validated bit for bit
// against the per-source serial BFS (the direction sweep additionally
// validates a BFS tree per lane), and the headline number is the *modeled
// batch speedup*: the summed modeled time of W independent single-source
// runs divided by the one batched run that serves the same W sources -- the
// amortization a landmark/sketch serving tier would bank.
//
// Exit status is non-zero when any lane diverges from its serial
// reference, when the W = 1 batch fails to reproduce the single-source
// engine's iteration count and wire bytes, when the full-width batch fails
// to beat W sequential runs in modeled time, when a compressed run ships
// more bytes than its raw twin, when the wide hybrid takes no bottom-up
// round, or when the hybrid fails to beat forced push at W = 64 -- CI runs
// this on a tiny graph as a smoke test.
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "baseline/serial_bfs.hpp"
#include "bench_common.hpp"
#include "core/batch_bfs.hpp"
#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "util/cli.hpp"

namespace {

using namespace dsbfs;

struct RunRecord {
  std::size_t batch = 0;
  int lane_bits = 0;
  bool overlap = false, compress = false;
  int iterations = 0;
  double modeled_ms = 0;
  double singles_modeled_ms = 0;  // sum over the batch's sources
  double batch_speedup = 0;       // singles / batch
  std::uint64_t exchange_remote_bytes = 0;
  std::uint64_t mask_reduce_bytes = 0;
  std::uint64_t edges_traversed = 0;
  std::uint64_t frontier_lane_bits = 0;
  bool valid = false;
};

/// One row of the direction sweep (push vs union-frontier hybrid).
struct DirectionRecord {
  std::size_t batch = 0;
  bool hybrid = false;
  int iterations = 0;
  int pull_rounds = 0;  // rounds with any dd/dn/nd kernel backward
  double modeled_ms = 0;
  std::uint64_t edges_traversed = 0;
  bool valid = false;  // depths + BFS tree per lane
  // Per-round audit columns.
  std::vector<std::uint64_t> live_frontier_lanes;
  std::vector<std::uint64_t> live_delegate_lanes;
  std::vector<bool> pulled;
};

template <typename T>
void emit_array(std::ostream& os, const std::vector<T>& xs) {
  os << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if constexpr (std::is_same_v<T, bool>) {
      os << (xs[i] ? "true" : "false");
    } else {
      os << xs[i];
    }
    if (i + 1 < xs.size()) os << ", ";
  }
  os << "]";
}

void emit_json(std::ostream& os, const std::vector<RunRecord>& runs,
               const std::vector<DirectionRecord>& dir_runs, int scale,
               const sim::ClusterSpec& spec, std::uint64_t vertices,
               std::uint64_t edges, std::uint32_t threshold, bool all_checks) {
  os << "{\n  \"graph\": {\"scale\": " << scale << ", \"vertices\": "
     << vertices << ", \"edges\": " << edges << ", \"cluster\": \""
     << spec.num_ranks << "x" << spec.gpus_per_rank
     << "\", \"degree_threshold\": " << threshold << "},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    os << "    {\"batch\": " << r.batch << ", \"lane_bits\": " << r.lane_bits
       << ", \"overlap\": " << (r.overlap ? "true" : "false")
       << ", \"compress\": " << (r.compress ? "true" : "false")
       << ", \"iterations\": " << r.iterations
       << ", \"modeled_ms\": " << r.modeled_ms
       << ", \"singles_modeled_ms\": " << r.singles_modeled_ms
       << ", \"batch_speedup\": " << r.batch_speedup
       << ", \"exchange_remote_bytes\": " << r.exchange_remote_bytes
       << ", \"mask_reduce_bytes\": " << r.mask_reduce_bytes
       << ", \"edges_traversed\": " << r.edges_traversed
       << ", \"frontier_lane_bits\": " << r.frontier_lane_bits
       << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"direction_runs\": [\n";
  for (std::size_t i = 0; i < dir_runs.size(); ++i) {
    const DirectionRecord& r = dir_runs[i];
    os << "    {\"batch\": " << r.batch << ", \"direction\": \""
       << (r.hybrid ? "hybrid" : "push") << "\", \"iterations\": "
       << r.iterations << ", \"pull_rounds\": " << r.pull_rounds
       << ", \"modeled_ms\": " << r.modeled_ms
       << ", \"edges_traversed\": " << r.edges_traversed
       << ", \"valid\": " << (r.valid ? "true" : "false")
       << ", \"live_frontier_lanes\": ";
    emit_array(os, r.live_frontier_lanes);
    os << ", \"live_delegate_lanes\": ";
    emit_array(os, r.live_delegate_lanes);
    os << ", \"pulled\": ";
    emit_array(os, r.pulled);
    os << "}" << (i + 1 < dir_runs.size() ? "," : "") << "\n";
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
  if (cli.help_requested()) {
    cli.print_help(
        "Ablation: batch width x overlap x compress for the batched BFS");
    return 0;
  }
  std::cerr << "ablation: batch width x overlap x compress on RMAT scale "
            << scale << ", cluster " << ranks << "x" << gpus << "\n";

  sim::ClusterSpec spec;
  spec.num_ranks = ranks;
  spec.gpus_per_rank = gpus;
  const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 11});
  const graph::HostCsr host = graph::build_host_csr(g);
  const graph::DistributedGraph dg =
      graph::build_distributed(g, spec, static_cast<std::uint32_t>(th));
  sim::Cluster cluster(spec);

  // The batch runs forward-push, so the per-source baseline does too --
  // same kernels, same exchange options, no lanes.
  core::BfsOptions single_options;
  single_options.direction_optimized = false;
  core::DistributedBfs single(dg, cluster, single_options);

  // Deterministic source pool shared by every configuration.
  std::vector<VertexId> pool;
  for (std::size_t k = 0; k < 64; ++k) {
    pool.push_back(single.sample_source(k * 13 + 1));
  }
  // Single-source modeled time per pool entry, computed once; pool[0]'s
  // full metrics are kept for the W = 1 reproduction checks below.
  std::vector<double> single_ms(pool.size(), 0.0);
  std::vector<std::vector<Depth>> serial(pool.size());
  core::RunMetrics single0_metrics;
  for (std::size_t k = 0; k < pool.size(); ++k) {
    core::BfsResult sr = single.run(pool[k]);
    single_ms[k] = sr.metrics.modeled_ms;
    if (k == 0) single0_metrics = std::move(sr.metrics);
    serial[k] = baseline::serial_bfs(host, pool[k]);
  }

  std::vector<RunRecord> runs;
  bool ok = true;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}}) {
    for (const bool overlap : {false, true}) {
      for (const bool compress : {false, true}) {
        core::BfsOptions options{.direction_optimized = false};
        options.run.overlap = overlap;
        options.run.codec =
            compress ? comm::WireCodec::kAdaptive : comm::WireCodec::kRaw;
        core::DistributedBatchBfs bfs(dg, cluster, options);
        const std::span<const VertexId> sources(pool.data(), batch);
        const core::BatchBfsResult r = bfs.run(sources);

        RunRecord rec;
        rec.batch = batch;
        rec.lane_bits = r.metrics.lane_bits;
        rec.overlap = overlap;
        rec.compress = compress;
        rec.iterations = r.metrics.iterations;
        rec.modeled_ms = r.metrics.modeled_ms;
        for (std::size_t k = 0; k < batch; ++k) {
          rec.singles_modeled_ms += single_ms[k];
        }
        rec.batch_speedup =
            rec.modeled_ms > 0 ? rec.singles_modeled_ms / rec.modeled_ms : 0;
        rec.exchange_remote_bytes = r.metrics.exchange_remote_bytes;
        rec.mask_reduce_bytes = r.metrics.mask_reduce_bytes;
        rec.edges_traversed = r.metrics.edges_traversed;
        for (const core::IterationStats& it : r.metrics.per_iteration) {
          rec.frontier_lane_bits += it.frontier_lane_bits;
        }

        rec.valid = true;
        for (std::size_t lane = 0; lane < batch; ++lane) {
          if (r.distances[lane] != serial[lane]) {
            std::cerr << "FAIL: batch " << batch << " lane " << lane
                      << " diverged from serial BFS (overlap=" << overlap
                      << " compress=" << compress << ")\n";
            rec.valid = false;
            ok = false;
          }
        }
        runs.push_back(rec);
      }
    }
  }

  // ---- direction sweep: forced push vs union-frontier hybrid -------------
  // Fixed wire options (overlap, raw payload), BFS trees on so the hybrid's
  // pull-claimed parents are validated too.
  std::vector<DirectionRecord> dir_runs;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{32},
                                  std::size_t{64}}) {
    for (const bool hybrid : {false, true}) {
      core::BfsOptions options;
      options.direction_optimized = hybrid;
      options.compute_parents = true;
      core::DistributedBatchBfs bfs(dg, cluster, options);
      const std::span<const VertexId> sources(pool.data(), batch);
      const core::BatchBfsResult r = bfs.run(sources);

      DirectionRecord rec;
      rec.batch = batch;
      rec.hybrid = hybrid;
      rec.iterations = r.metrics.iterations;
      rec.modeled_ms = r.metrics.modeled_ms;
      rec.edges_traversed = r.metrics.edges_traversed;
      for (const core::IterationStats& it : r.metrics.per_iteration) {
        const bool pulled = it.dd_backward || it.dn_backward || it.nd_backward;
        rec.pull_rounds += pulled ? 1 : 0;
        rec.pulled.push_back(pulled);
        rec.live_frontier_lanes.push_back(it.live_frontier_lanes);
        rec.live_delegate_lanes.push_back(it.live_delegate_lanes);
      }

      rec.valid = true;
      for (std::size_t lane = 0; lane < batch; ++lane) {
        if (r.distances[lane] != serial[lane]) {
          std::cerr << "FAIL: direction sweep batch " << batch << " lane "
                    << lane << " diverged from serial BFS (hybrid=" << hybrid
                    << ")\n";
          rec.valid = false;
          ok = false;
        }
        const core::ValidationReport tree = core::validate_parents(
            g, pool[lane], r.distances[lane], r.parents[lane]);
        if (!tree.ok) {
          std::cerr << "FAIL: direction sweep batch " << batch << " lane "
                    << lane << " invalid BFS tree (hybrid=" << hybrid
                    << "): " << tree.error << "\n";
          rec.valid = false;
          ok = false;
        }
      }
      dir_runs.push_back(rec);
    }
  }

  // ---- ablation orderings ------------------------------------------------
  // W = 1 must reproduce the single-source engine exactly (default wire
  // options: no uniquify, no compression).
  for (const RunRecord& r : runs) {
    if (r.batch != 1 || r.compress) continue;
    if (r.iterations != single0_metrics.iterations) {
      std::cerr << "FAIL: W=1 batch ran " << r.iterations
                << " iterations vs single-source "
                << single0_metrics.iterations << "\n";
      ok = false;
    }
    if (r.overlap &&
        r.exchange_remote_bytes != single0_metrics.exchange_remote_bytes) {
      std::cerr << "FAIL: W=1 batch wire bytes " << r.exchange_remote_bytes
                << " != single-source "
                << single0_metrics.exchange_remote_bytes << "\n";
      ok = false;
    }
    if (r.overlap &&
        r.mask_reduce_bytes != single0_metrics.mask_reduce_bytes) {
      std::cerr << "FAIL: W=1 batch mask bytes " << r.mask_reduce_bytes
                << " != single-source " << single0_metrics.mask_reduce_bytes
                << "\n";
      ok = false;
    }
  }
  // The full-width batch must beat W sequential single-source runs in
  // modeled time -- the point of lane amortization.
  for (const RunRecord& r : runs) {
    if (r.batch < 8 || !r.overlap || r.compress) continue;
    if (r.batch_speedup <= 1.0) {
      std::cerr << "FAIL: batch " << r.batch << " modeled speedup "
                << r.batch_speedup << " <= 1 over sequential singles\n";
      ok = false;
    }
  }
  // The adaptive codec ships each bin in the smallest of raw and two
  // encoded forms, so a compressed run never ships more than its raw twin.
  for (const RunRecord& coded : runs) {
    if (!coded.compress) continue;
    for (const RunRecord& raw : runs) {
      if (raw.compress || raw.batch != coded.batch ||
          raw.overlap != coded.overlap) {
        continue;
      }
      if (coded.exchange_remote_bytes > raw.exchange_remote_bytes) {
        std::cerr << "FAIL: batch " << coded.batch << " adaptive wire "
                  << coded.exchange_remote_bytes << " bytes exceeds raw "
                  << raw.exchange_remote_bytes << "\n";
        ok = false;
      }
    }
  }
  // Wide hybrids must actually take bottom-up rounds (the union frontier
  // saturates RMAT cores fast), and at full width the hybrid must beat
  // forced push in modeled time -- the tentpole claim.
  double push64 = 0, hybrid64 = 0;
  for (const DirectionRecord& r : dir_runs) {
    if (r.hybrid && r.batch >= 32 && r.pull_rounds < 1) {
      std::cerr << "FAIL: hybrid batch " << r.batch
                << " took no bottom-up round\n";
      ok = false;
    }
    if (r.batch == 64) (r.hybrid ? hybrid64 : push64) = r.modeled_ms;
  }
  if (hybrid64 <= 0 || hybrid64 >= push64) {
    std::cerr << "FAIL: hybrid W=64 modeled " << hybrid64
              << " ms does not beat forced push " << push64 << " ms\n";
    ok = false;
  }
  if (ok) {
    std::cerr << "checks passed: every lane matches serial BFS (valid trees"
              << " in the direction sweep), W=1 reproduces the single-source"
              << " run, batched runs beat sequential singles, compression"
              << " never ships more than raw, and the W=64"
              << " hybrid pulls and beats forced push in modeled time\n";
  }

  emit_json(std::cout, runs, dir_runs, scale, spec, dg.num_vertices(),
            dg.num_edges(), static_cast<std::uint32_t>(th), ok);
  return ok ? 0 : 1;
}
