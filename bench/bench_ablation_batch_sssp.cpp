// Ablation of batched delta-stepping on the lane-valued frontier substrate:
// batch width x delta x exchange topology on an RMAT graph, every lane
// validated bit for bit against baseline::serial_delta_sssp.  The headline
// number is the *modeled batch speedup*: the summed modeled time of W
// independent single-source delta-stepping runs divided by the one batched
// run serving the same W sources -- the per-vertex (not per-slot) edge
// sweeps, shared union bucket collectives and packed lane-word wire are
// what the paper's substrate buys for multi-source serving.
//
// Two composition rows ride along: a betweenness-centrality mini-run
// (forward + reverse engine runs stitched with sim::compose_breakdowns,
// scores checked against baseline::serial_brandes) and a PageRank wire
// comparison of raw vs adaptive varint vs adaptive Gorilla float
// compression.
//
// Exit status is non-zero when any lane diverges from its serial oracle,
// when the W = 1 / value_bits = 64 batch fails to reproduce the
// single-source engine's schedule and wire bytes, when the W = 64 batch's
// modeled speedup is not above 8x, when the BC scores diverge or its
// composed model loses rows, or when adaptive Gorilla ships more PageRank
// bytes than raw -- CI runs this on a small graph as a smoke test
// (BENCH_PR10.json).
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "baseline/brandes.hpp"
#include "baseline/host_apps.hpp"
#include "bench_common.hpp"
#include "core/batch_sssp.hpp"
#include "core/betweenness.hpp"
#include "core/delta_sssp.hpp"
#include "core/pagerank.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "util/cli.hpp"

namespace {

using namespace dsbfs;

struct RunRecord {
  std::size_t batch = 0;
  std::uint64_t delta = 0;
  const char* topology = "flat";
  int value_bits = 0;
  int iterations = 0;
  std::uint64_t buckets = 0;
  double modeled_ms = 0;
  double singles_modeled_ms = 0;  // sum over the batch's sources
  double batch_speedup = 0;       // singles / batch
  std::uint64_t update_bytes_remote = 0;
  std::uint64_t reduce_bytes = 0;
  std::uint64_t light_relaxations = 0;
  std::uint64_t heavy_relaxations = 0;
  bool valid = false;
};

void emit_json(std::ostream& os, const std::vector<RunRecord>& runs,
               int scale, const sim::ClusterSpec& spec, std::uint64_t vertices,
               std::uint64_t edges, std::uint32_t threshold,
               const core::BetweennessResult& bc, bool bc_valid,
               std::uint64_t pr_raw, std::uint64_t pr_varint,
               std::uint64_t pr_gorilla, bool all_checks) {
  os << "{\n  \"graph\": {\"scale\": " << scale << ", \"vertices\": "
     << vertices << ", \"edges\": " << edges << ", \"cluster\": \""
     << spec.num_ranks << "x" << spec.gpus_per_rank
     << "\", \"degree_threshold\": " << threshold << "},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    os << "    {\"batch\": " << r.batch << ", \"delta\": " << r.delta
       << ", \"topology\": \"" << r.topology << "\""
       << ", \"value_bits\": " << r.value_bits
       << ", \"iterations\": " << r.iterations
       << ", \"buckets\": " << r.buckets
       << ", \"modeled_ms\": " << r.modeled_ms
       << ", \"singles_modeled_ms\": " << r.singles_modeled_ms
       << ", \"batch_speedup\": " << r.batch_speedup
       << ", \"update_bytes_remote\": " << r.update_bytes_remote
       << ", \"reduce_bytes\": " << r.reduce_bytes
       << ", \"light_relaxations\": " << r.light_relaxations
       << ", \"heavy_relaxations\": " << r.heavy_relaxations
       << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"betweenness\": {\"forward_iterations\": "
     << bc.forward.iterations
     << ", \"reverse_iterations\": " << bc.reverse.iterations
     << ", \"max_depth\": " << bc.max_depth
     << ", \"modeled_ms\": " << bc.modeled_ms
     << ", \"update_bytes_remote\": "
     << bc.forward.update_bytes_remote + bc.reverse.update_bytes_remote
     << ", \"reduce_bytes\": "
     << bc.forward.reduce_bytes + bc.reverse.reduce_bytes
     << ", \"valid\": " << (bc_valid ? "true" : "false") << "},\n"
     << "  \"pagerank_wire\": {\"raw_bytes\": " << pr_raw
     << ", \"adaptive_varint_bytes\": " << pr_varint
     << ", \"adaptive_gorilla_bytes\": " << pr_gorilla << "},\n"
     << "  \"checks_passed\": " << (all_checks ? "true" : "false") << "\n}\n";
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
        "Ablation: batch width x delta x topology for batched delta-stepping "
        "SSSP on the lane-valued substrate, plus BC and Gorilla rows");
    return 0;
  }
  std::cerr << "ablation: batched delta-stepping on RMAT scale " << scale
            << ", cluster " << ranks << "x" << gpus << "\n";

  sim::ClusterSpec spec;
  spec.num_ranks = ranks;
  spec.gpus_per_rank = gpus;
  const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 11});
  const graph::HostCsr host = graph::build_host_csr(g);
  const graph::DistributedGraph dg =
      graph::build_distributed(g, spec, static_cast<std::uint32_t>(th));
  sim::Cluster cluster(spec);

  // Deterministic source pool shared by every configuration.
  std::vector<VertexId> pool;
  for (std::uint64_t k = 0; k < 64; ++k) {
    pool.push_back((k * 13 + 1) % dg.num_vertices());
  }

  const std::vector<std::uint64_t> deltas = {3, 8};
  // Per-delta single-source baselines: modeled time per pool entry (the
  // sequential cost a batched run amortizes) and the serial oracles; the
  // delta = 8, pool[0] metrics feed the W = 1 reproduction checks.
  std::map<std::uint64_t, std::vector<double>> single_ms;
  std::map<std::uint64_t, std::vector<std::vector<std::uint64_t>>> oracle;
  core::DeltaSsspResult single0;
  for (const std::uint64_t delta : deltas) {
    core::DistributedDeltaSssp single(dg, cluster, {.delta = delta});
    auto& ms = single_ms[delta];
    auto& ora = oracle[delta];
    ms.resize(pool.size());
    ora.resize(pool.size());
    for (std::size_t k = 0; k < pool.size(); ++k) {
      core::DeltaSsspResult sr = single.run(pool[k]);
      ms[k] = sr.modeled_ms;
      ora[k] = baseline::serial_delta_sssp(host, pool[k], delta);
      if (delta == 8 && k == 0) single0 = std::move(sr);
    }
  }

  bool ok = true;
  std::vector<RunRecord> runs;
  for (const std::uint64_t delta : deltas) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8},
                                    std::size_t{64}}) {
      for (const auto topology :
           {sim::ExchangeTopology::kFlat, sim::ExchangeTopology::kButterfly}) {
        core::BatchSsspOptions options;
        options.delta = delta;
        options.value_bits = 32;
        options.run.exchange_topology = topology;
        core::DistributedBatchSssp sssp(dg, cluster, options);
        const std::vector<VertexId> sources(pool.begin(),
                                            pool.begin() + batch);
        const core::BatchSsspResult r = sssp.run(sources);

        RunRecord rec;
        rec.batch = batch;
        rec.delta = delta;
        rec.topology =
            topology == sim::ExchangeTopology::kFlat ? "flat" : "butterfly";
        rec.value_bits = options.value_bits;
        rec.iterations = r.iterations;
        rec.buckets = r.buckets_processed;
        rec.modeled_ms = r.modeled_ms;
        for (std::size_t k = 0; k < batch; ++k) {
          rec.singles_modeled_ms += single_ms[delta][k];
        }
        rec.batch_speedup =
            rec.modeled_ms > 0 ? rec.singles_modeled_ms / rec.modeled_ms : 0;
        rec.update_bytes_remote = r.update_bytes_remote;
        rec.reduce_bytes = r.reduce_bytes;
        rec.light_relaxations = r.light_relaxations;
        rec.heavy_relaxations = r.heavy_relaxations;

        rec.valid = true;
        for (std::size_t lane = 0; lane < batch; ++lane) {
          if (r.distances[lane] != oracle[delta][lane]) {
            std::cerr << "FAIL: delta " << delta << " batch " << batch
                      << " lane " << lane
                      << " diverged from serial delta-stepping ("
                      << rec.topology << ")\n";
            rec.valid = false;
            ok = false;
          }
        }
        runs.push_back(rec);
      }
    }
  }

  // ---- W = 1 at full lane width must reproduce the single-source run ----
  {
    core::DistributedBatchSssp sssp(dg, cluster,
                                    {.delta = 8, .value_bits = 64});
    const core::BatchSsspResult r = sssp.run({pool[0]});
    if (r.distances[0] != single0.distances ||
        r.iterations != single0.iterations ||
        r.buckets_processed != single0.buckets_processed ||
        r.update_bytes_remote != single0.update_bytes_remote ||
        r.reduce_bytes != single0.reduce_bytes) {
      std::cerr << "FAIL: W=1/64-bit batch does not reproduce the "
                << "single-source run (iterations " << r.iterations << " vs "
                << single0.iterations << ", wire " << r.update_bytes_remote
                << " vs " << single0.update_bytes_remote << ", reduce "
                << r.reduce_bytes << " vs " << single0.reduce_bytes << ")\n";
      ok = false;
    }
  }

  // ---- the tentpole claim: W = 64 amortization beats 8x ------------------
  for (const RunRecord& r : runs) {
    if (r.batch != 64) continue;
    if (r.batch_speedup <= 8.0) {
      std::cerr << "FAIL: batch 64 (delta " << r.delta << ", " << r.topology
                << ") modeled speedup " << r.batch_speedup
                << " <= 8x over sequential singles\n";
      ok = false;
    }
  }

  // ---- betweenness mini-run: two composed engine runs --------------------
  const std::vector<VertexId> bc_sources(pool.begin(), pool.begin() + 8);
  core::BetweennessCentrality bc_algo(dg, cluster);
  const core::BetweennessResult bc = bc_algo.run(bc_sources);
  const std::vector<double> bc_oracle = baseline::serial_brandes(
      host, std::span<const VertexId>(bc_sources));
  bool bc_valid = bc.scores == bc_oracle;
  if (!bc_valid) {
    std::cerr << "FAIL: betweenness scores diverge from serial Brandes\n";
    ok = false;
  }
  if (bc.modeled.iteration_end_ms.size() !=
      static_cast<std::size_t>(bc.forward.iterations +
                               bc.reverse.iterations)) {
    std::cerr << "FAIL: composed BC model lost iteration rows ("
              << bc.modeled.iteration_end_ms.size() << " vs "
              << bc.forward.iterations + bc.reverse.iterations << ")\n";
    bc_valid = false;
    ok = false;
  }

  // ---- PageRank wire: raw vs adaptive varint vs adaptive Gorilla ---------
  std::uint64_t pr_bytes[3] = {0, 0, 0};
  std::vector<double> pr_ranks[3];
  constexpr comm::WireCodec kPrCodecs[3] = {comm::WireCodec::kRaw,
                                            comm::WireCodec::kAdaptive,
                                            comm::WireCodec::kGorilla};
  for (int mode = 0; mode < 3; ++mode) {
    core::PagerankOptions options;
    options.max_iterations = 10;
    options.run.codec = kPrCodecs[mode];
    core::DistributedPagerank pr(dg, cluster, options);
    const core::PagerankResult r = pr.run();
    pr_bytes[mode] = r.update_bytes_remote;
    pr_ranks[mode] = r.ranks;
  }
  if (pr_ranks[1] != pr_ranks[0] || pr_ranks[2] != pr_ranks[0]) {
    std::cerr << "FAIL: compressed PageRank ranks diverge from raw\n";
    ok = false;
  }
  // The adaptive guarantee: per-bin trial-encode never ships more than raw.
  if (pr_bytes[1] > pr_bytes[0] || pr_bytes[2] > pr_bytes[0]) {
    std::cerr << "FAIL: adaptive compression shipped more than raw (raw "
              << pr_bytes[0] << ", varint " << pr_bytes[1] << ", gorilla "
              << pr_bytes[2] << ")\n";
    ok = false;
  }

  if (ok) {
    std::cerr << "checks passed: every lane matches serial delta-stepping, "
              << "W=1 reproduces the single-source run, W=64 exceeds 8x "
              << "modeled speedup, BC matches serial Brandes through the "
              << "composed model, and adaptive Gorilla never exceeds raw\n";
  }
  emit_json(std::cout, runs, scale, spec, dg.num_vertices(), dg.num_edges(),
            static_cast<std::uint32_t>(th), bc, bc_valid, pr_bytes[0],
            pr_bytes[1], pr_bytes[2], ok);
  return ok ? 0 : 1;
}
