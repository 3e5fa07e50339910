// Ablation of the engine-wide communication levers this repo adds on top of
// the paper's BFS pipeline: the two-stream reduce/exchange overlap, the
// per-bin min/sum-uniquify pass in the update exchange, and the wire codec:
// raw, or adaptive per bin (each non-empty bin ships the smallest of raw,
// delta+varint above the bin's own floor, and Gorilla).  Sweeps
// {overlap} x {uniquify} x {codec raw/adaptive}
// for CC, PageRank and SSSP on an RMAT graph, validates every configuration
// against the serial references, and emits a JSON report (stdout) with
// modeled cluster time, exchanged bytes per round, and the adaptive
// per-bin path counters.
//
// A second sweep ablates the exchange *topology* (flat vs hierarchical vs
// butterfly BFS) across modeled node counts 1..64 at two GPUs per node:
// every topology must stay bit-exact against serial BFS, the butterfly must
// show its log2(nodes) inter-hop pattern with exactly one inter-node partner
// per leader per hop, and at >= 16 nodes the butterfly's modeled time must
// beat the flat all-to-all (the aggregation latency it pays at small scale
// amortizes once flat's p-1 partner fan-out saturates the per-node NIC).
//
// Exit status is non-zero when any configuration's result diverges from the
// serial baseline or when the expected ablation orderings do not hold
// (uniquify must strictly cut SSSP/CC update bytes on dense rounds; overlap
// must lower modeled time; adaptive compression must never ship more bytes
// than raw, must beat raw outright on PageRank, and must encode some CC and
// SSSP bins; the topology contracts above) -- CI runs this on a tiny graph
// as a smoke test.
#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/host_apps.hpp"
#include "baseline/serial_bfs.hpp"
#include "bench_common.hpp"
#include "comm/exchange.hpp"
#include "core/bfs.hpp"
#include "core/components.hpp"
#include "core/pagerank.hpp"
#include "core/sssp.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "sim/perf_model.hpp"
#include "sim/topology.hpp"
#include "util/cli.hpp"

namespace {

using namespace dsbfs;

using comm::WireCodec;

struct RunRecord {
  std::string algo;
  bool overlap = false, uniquify = false;
  WireCodec codec = WireCodec::kRaw;
  int iterations = 0;
  double modeled_ms = 0;
  std::uint64_t update_bytes_remote = 0;
  std::uint64_t reduce_bytes = 0;
  std::uint64_t bins_compressed = 0;  // adaptive: bins that shipped encoded
  std::uint64_t bins_raw = 0;         // adaptive: bins that shipped raw
  std::vector<std::uint64_t> bytes_per_round;  // cross-rank update bytes
  bool valid = false;
};

/// The report's historic name of each codec (its "compress" field).
const char* codec_label(WireCodec codec) {
  switch (codec) {
    case WireCodec::kRaw: return "off";
    case WireCodec::kAdaptive: return "adaptive";
  }
  return "?";
}

/// Sum the per-bin codec decision counters over the whole run.
std::pair<std::uint64_t, std::uint64_t> bin_choices(
    const sim::RunCounters& counters) {
  std::uint64_t enc = 0, raw = 0;
  for (const auto& ic : counters.iterations) {
    for (const auto& gc : ic.gpu) {
      enc += gc.bins_compressed;
      raw += gc.bins_uncompressed;
    }
  }
  return {enc, raw};
}

std::vector<std::uint64_t> round_bytes(const sim::RunCounters& counters) {
  std::vector<std::uint64_t> out;
  out.reserve(counters.iterations.size());
  for (const auto& ic : counters.iterations) {
    std::uint64_t b = 0;
    for (const auto& gc : ic.gpu) b += gc.send_bytes_remote;
    out.push_back(b);
  }
  return out;
}

void emit_json(std::ostream& os, const std::vector<RunRecord>& runs,
               int scale, const sim::ClusterSpec& spec, std::uint64_t vertices,
               std::uint64_t edges, std::uint32_t threshold) {
  os << "{\n  \"graph\": {\"scale\": " << scale << ", \"vertices\": "
     << vertices << ", \"edges\": " << edges << ", \"cluster\": \""
     << spec.num_ranks << "x" << spec.gpus_per_rank
     << "\", \"degree_threshold\": " << threshold << "},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    os << "    {\"algo\": \"" << r.algo << "\", \"overlap\": "
       << (r.overlap ? "true" : "false") << ", \"uniquify\": "
       << (r.uniquify ? "true" : "false") << ", \"compress\": \""
       << codec_label(r.codec) << "\", \"iterations\": "
       << r.iterations << ", \"modeled_ms\": " << r.modeled_ms
       << ", \"update_bytes_remote\": " << r.update_bytes_remote
       << ", \"reduce_bytes\": " << r.reduce_bytes
       << ", \"bins_compressed\": " << r.bins_compressed
       << ", \"bins_raw\": " << r.bins_raw << ", \"valid\": "
       << (r.valid ? "true" : "false") << ", \"bytes_per_round\": [";
    for (std::size_t j = 0; j < r.bytes_per_round.size(); ++j) {
      os << (j ? ", " : "") << r.bytes_per_round[j];
    }
    os << "]}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
}

/// One point of the exchange-topology sweep (BFS across modeled nodes).
struct TopologyRecord {
  int nodes = 0;
  std::string topology;
  int iterations = 0;
  double modeled_ms = 0;
  std::uint64_t internode_bytes = 0;  // wire bytes on the IB leg
  std::uint64_t intranode_bytes = 0;  // NVLink gather/scatter bytes
  int inter_hops = 0;                 // inter-node hops per exchange round
  int max_inter_partners = 0;         // worst per-hop fan-out (a leader's)
  bool valid = false;
};

/// Distill a run's hop traces: how many distinct inter-node hops each round
/// carried and the widest per-hop partner fan-out any GPU paid.
std::pair<int, int> hop_shape(const sim::RunCounters& counters) {
  std::set<int> inter;
  int widest = 0;
  for (const auto& ic : counters.iterations) {
    for (const auto& gc : ic.gpu) {
      for (const auto& h : gc.hops) {
        if (!h.internode) continue;
        inter.insert(h.hop);
        widest = std::max(widest, h.partners);
      }
    }
  }
  return {static_cast<int>(inter.size()), widest};
}

void emit_topology_json(std::ostream& os, const char* key,
                        const std::vector<TopologyRecord>& runs) {
  os << "  \"" << key << "\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TopologyRecord& r = runs[i];
    os << "    {\"nodes\": " << r.nodes << ", \"topology\": \"" << r.topology
       << "\", \"iterations\": " << r.iterations << ", \"modeled_ms\": "
       << r.modeled_ms << ", \"internode_bytes\": " << r.internode_bytes
       << ", \"intranode_bytes\": " << r.intranode_bytes
       << ", \"inter_hops\": " << r.inter_hops << ", \"max_inter_partners\": "
       << r.max_inter_partners << ", \"valid\": "
       << (r.valid ? "true" : "false") << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
}

/// One dense synthetic update-exchange round through the real comm layer:
/// every GPU ships 64 (id, value) records to every destination (the
/// full-frontier regime the paper's exchange is sized for, which a tiny
/// smoke graph cannot reach), then the measured counters are replayed on
/// the PerfModel.  This is where flat's p-1 per-partner message latency
/// meets the butterfly's log2(nodes) aggregated hops.
TopologyRecord dense_round(const sim::ClusterSpec& spec,
                           sim::ExchangeTopology topology,
                           std::map<int, std::map<LocalId, std::uint64_t>>*
                               folded_out) {
  const int p = spec.total_gpus();
  comm::Transport transport(spec);
  std::vector<sim::GpuIterationCounters> gpu_counters(
      static_cast<std::size_t>(p));
  std::vector<std::vector<comm::VertexUpdate>> received(
      static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<comm::VertexUpdate>> bins(
          static_cast<std::size_t>(p));
      for (int dest = 0; dest < p; ++dest) {
        for (int i = 0; i < 64; ++i) {
          const std::uint64_t k = static_cast<std::uint64_t>(g) * 131 +
                                  static_cast<std::uint64_t>(dest) * 17 +
                                  static_cast<std::uint64_t>(i) * 29;
          bins[static_cast<std::size_t>(dest)].push_back(
              {static_cast<LocalId>(k % 509), (k % 8191) + 1});
        }
      }
      comm::ExchangeOptions options;
      options.combine = comm::UpdateCombine::kMin;
      options.topology = topology;
      comm::ExchangeCounters ec;
      received[static_cast<std::size_t>(g)] = comm::exchange(
          transport, spec, spec.coord_of(g), bins, /*iteration=*/0, options,
          ec);
      auto& c = gpu_counters[static_cast<std::size_t>(g)];
      c.bin_vertices = ec.bin_vertices;
      c.send_bytes_remote = ec.send_bytes_remote;
      c.recv_bytes_remote = ec.recv_bytes_remote;
      c.send_dest_ranks = ec.send_dest_ranks;
      c.local_all2all_bytes = ec.local_bytes;
      c.hops = std::move(ec.hops);
    });
  }
  for (auto& th : threads) th.join();

  TopologyRecord rec;
  rec.nodes = spec.num_nodes();
  rec.topology = sim::to_string(topology);
  rec.iterations = 1;
  for (const auto& c : gpu_counters) {
    rec.internode_bytes += c.send_bytes_remote;
    rec.intranode_bytes += c.local_all2all_bytes;
  }
  sim::RunCounters run;
  run.spec = spec;
  run.iterations.resize(1);
  run.iterations[0].gpu = std::move(gpu_counters);
  std::tie(rec.inter_hops, rec.max_inter_partners) = hop_shape(run);
  rec.modeled_ms = sim::PerfModel().replay(run).elapsed_ms;
  if (folded_out != nullptr) {
    for (int g = 0; g < p; ++g) {
      auto& folded = (*folded_out)[g];
      for (const comm::VertexUpdate& u :
           received[static_cast<std::size_t>(g)]) {
        auto [it, fresh] = folded.emplace(u.vertex, u.value);
        if (!fresh) it->second = std::min(it->second, u.value);
      }
    }
  }
  return rec;
}

const TopologyRecord& find_topology(const std::vector<TopologyRecord>& runs,
                                    int nodes, const std::string& topology) {
  for (const TopologyRecord& r : runs) {
    if (r.nodes == nodes && r.topology == topology) return r;
  }
  std::cerr << "missing topology sweep point " << topology << " at " << nodes
            << " nodes\n";
  std::exit(2);
}

/// Find a sweep point; the full cross product is always present.
const RunRecord& find(const std::vector<RunRecord>& runs,
                      const std::string& algo, bool overlap, bool uniquify,
                      WireCodec codec) {
  for (const RunRecord& r : runs) {
    if (r.algo == algo && r.overlap == overlap && r.uniquify == uniquify &&
        r.codec == codec) {
      return r;
    }
  }
  std::cerr << "missing sweep point " << algo << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int scale =
      static_cast<int>(cli.get_int("scale", 10, "RMAT graph scale"));
  const int ranks = static_cast<int>(cli.get_int("ranks", 2, "cluster ranks"));
  const int gpus =
      static_cast<int>(cli.get_int("gpus", 2, "GPUs per rank"));
  const std::int64_t th =
      cli.get_int("th", 16, "delegate degree threshold");
  if (cli.help_requested()) {
    cli.print_help(
        "Ablation: overlap x uniquify x compress for CC / PageRank / SSSP");
    return 0;
  }
  // Human-readable context on stderr; stdout stays pure JSON.
  std::cerr << "ablation: overlap x uniquify x compress on RMAT scale "
            << scale << ", cluster " << ranks << "x" << gpus << "\n";

  sim::ClusterSpec spec;
  spec.num_ranks = ranks;
  spec.gpus_per_rank = gpus;
  const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 7});
  const graph::HostCsr host = graph::build_host_csr(g);
  const graph::DistributedGraph dg =
      graph::build_distributed(g, spec, static_cast<std::uint32_t>(th));
  sim::Cluster cluster(spec);

  const VertexId source = 3;
  const auto serial_cc = baseline::serial_components(host);
  // PageRank runs a fixed 10 iterations per configuration; the serial
  // reference must do exactly the same work.
  const auto serial_pr = baseline::serial_pagerank(
      host, {.damping = 0.85, .max_iterations = 10, .tolerance = 0.0});
  const auto serial_sp = baseline::serial_sssp(host, source);

  std::vector<RunRecord> runs;
  for (const bool overlap : {false, true}) {
    for (const bool uniquify : {false, true}) {
      for (const WireCodec codec : {WireCodec::kRaw, WireCodec::kAdaptive}) {
        const engine::RunOptions run{
            .overlap = overlap, .uniquify = uniquify, .codec = codec};
        {  // ---- connected components (bit-exact) ----------------------
          const core::CcOptions o{.run = run};
          const core::CcResult r =
              core::ConnectedComponents(dg, cluster, o).run();
          const auto [enc_bins, raw_bins] = bin_choices(r.counters);
          RunRecord rec{"cc", overlap, uniquify, codec,
                        r.iterations, r.modeled_ms, r.update_bytes_remote,
                        r.reduce_bytes, enc_bins, raw_bins,
                        round_bytes(r.counters), r.labels == serial_cc};
          runs.push_back(std::move(rec));
        }
        {  // ---- PageRank (tolerance) -----------------------------------
          core::PagerankOptions o;
          o.run = run;
          o.max_iterations = 10;
          o.tolerance = 0.0;  // fixed work per configuration
          const core::PagerankResult r =
              core::DistributedPagerank(dg, cluster, o).run();
          bool valid = r.ranks.size() == serial_pr.size();
          for (std::size_t v = 0; valid && v < serial_pr.size(); ++v) {
            valid = std::abs(r.ranks[v] - serial_pr[v]) < 1e-6;
          }
          const auto [enc_bins, raw_bins] = bin_choices(r.counters);
          RunRecord rec{"pagerank", overlap, uniquify, codec,
                        r.iterations, r.modeled_ms, r.update_bytes_remote,
                        r.reduce_bytes, enc_bins, raw_bins,
                        round_bytes(r.counters), valid};
          runs.push_back(std::move(rec));
        }
        {  // ---- SSSP (bit-exact) ---------------------------------------
          core::SsspOptions o;
          o.run = run;
          const core::SsspResult r =
              core::DistributedSssp(dg, cluster, o).run(source);
          const auto [enc_bins, raw_bins] = bin_choices(r.counters);
          RunRecord rec{"sssp", overlap, uniquify, codec,
                        r.iterations, r.modeled_ms, r.update_bytes_remote,
                        r.reduce_bytes, enc_bins, raw_bins,
                        round_bytes(r.counters), r.distances == serial_sp};
          runs.push_back(std::move(rec));
        }
      }
    }
  }

  // ---- exchange-topology sweep (BFS across modeled nodes 1 -> 64) --------
  // Two NVLink'd GPUs per modeled node, one rank (one NIC) per node; the
  // same graph re-partitioned for every cluster size.
  std::cerr << "topology sweep: flat / hierarchical / butterfly BFS on 1..64"
            << " modeled nodes\n";
  std::vector<TopologyRecord> topo_runs;
  const std::vector<Depth> serial_depths = baseline::serial_bfs(host, source);
  for (const int nodes : {1, 2, 4, 8, 16, 32, 64}) {
    sim::ClusterSpec tspec;
    tspec.num_ranks = nodes;
    tspec.gpus_per_rank = 2;
    tspec.ranks_per_node = 1;
    const graph::DistributedGraph tdg =
        graph::build_distributed(g, tspec, static_cast<std::uint32_t>(th));
    sim::Cluster tcluster(tspec);
    for (const auto topology : {sim::ExchangeTopology::kFlat,
                                sim::ExchangeTopology::kHierarchical,
                                sim::ExchangeTopology::kButterfly}) {
      core::BfsOptions o;
      o.run.exchange_topology = topology;
      const core::BfsResult r =
          core::DistributedBfs(tdg, tcluster, o).run(source);
      const auto [inter_hops, widest] = hop_shape(r.metrics.counters);
      topo_runs.push_back({nodes, sim::to_string(topology),
                           r.metrics.iterations, r.metrics.modeled_ms,
                           r.metrics.exchange_remote_bytes,
                           r.metrics.exchange_local_bytes, inter_hops, widest,
                           r.distances == serial_depths});
    }
  }

  // Dense synthetic rounds: the full-frontier wire pattern per topology at
  // every node count, modeled on the PerfModel (flat must pay its p-1
  // per-partner fan-out here, which the smoke graph's sparse bins hide).
  std::vector<TopologyRecord> dense_runs;
  for (const int nodes : {1, 2, 4, 8, 16, 32, 64}) {
    sim::ClusterSpec tspec;
    tspec.num_ranks = nodes;
    tspec.gpus_per_rank = 2;
    tspec.ranks_per_node = 1;
    std::map<int, std::map<LocalId, std::uint64_t>> flat_folded;
    for (const auto topology : {sim::ExchangeTopology::kFlat,
                                sim::ExchangeTopology::kHierarchical,
                                sim::ExchangeTopology::kButterfly}) {
      std::map<int, std::map<LocalId, std::uint64_t>> folded;
      TopologyRecord rec = dense_round(tspec, topology, &folded);
      if (topology == sim::ExchangeTopology::kFlat) {
        flat_folded = std::move(folded);
        rec.valid = true;
      } else {
        // Same logical kMin folds on every GPU as the flat route delivered.
        rec.valid = folded == flat_folded;
      }
      dense_runs.push_back(std::move(rec));
    }
  }

  // ---- ablation orderings (the point of the levers) ----------------------
  bool ok = true;
  for (const RunRecord& r : runs) {
    if (!r.valid) {
      std::cerr << "FAIL: " << r.algo << " diverged from the serial baseline"
                << " (overlap=" << r.overlap << " uniquify=" << r.uniquify
                << " compress=" << codec_label(r.codec) << ")\n";
      ok = false;
    }
  }
  for (const std::string algo : {"cc", "sssp"}) {
    const auto& with = find(runs, algo, true, true, WireCodec::kRaw);
    const auto& without = find(runs, algo, true, false, WireCodec::kRaw);
    if (with.update_bytes_remote >= without.update_bytes_remote) {
      std::cerr << "FAIL: " << algo << " uniquify did not cut update bytes ("
                << with.update_bytes_remote << " vs "
                << without.update_bytes_remote << ")\n";
      ok = false;
    }
  }
  for (const std::string algo : {"cc", "pagerank", "sssp"}) {
    const auto& on = find(runs, algo, true, true, WireCodec::kRaw);
    const auto& off = find(runs, algo, false, true, WireCodec::kRaw);
    if (on.modeled_ms >= off.modeled_ms) {
      std::cerr << "FAIL: " << algo << " overlap did not lower modeled time ("
                << on.modeled_ms << " vs " << off.modeled_ms << " ms)\n";
      ok = false;
    }
  }
  // Adaptive compression ships the smallest of raw and two encoded forms
  // per bin, so it can never ship more than raw at any sweep point.
  for (const RunRecord& adaptive : runs) {
    if (adaptive.codec != WireCodec::kAdaptive) continue;
    const auto& off = find(runs, adaptive.algo, adaptive.overlap,
                           adaptive.uniquify, WireCodec::kRaw);
    if (adaptive.update_bytes_remote > off.update_bytes_remote) {
      std::cerr << "FAIL: " << adaptive.algo << " adaptive compression"
                << " shipped more bytes (" << adaptive.update_bytes_remote
                << ") than raw (" << off.update_bytes_remote
                << ") (overlap=" << adaptive.overlap
                << " uniquify=" << adaptive.uniquify << ")\n";
      ok = false;
    }
  }
  {
    // PageRank's bit-cast doubles are what the Gorilla form is for:
    // successive shares share sign, exponent and high mantissa bits, so
    // adaptive must beat raw outright there.
    const auto& adaptive =
        find(runs, "pagerank", true, true, WireCodec::kAdaptive);
    const auto& raw = find(runs, "pagerank", true, true, WireCodec::kRaw);
    if (adaptive.update_bytes_remote >= raw.update_bytes_remote) {
      std::cerr << "FAIL: pagerank adaptive wire did not beat raw ("
                << adaptive.update_bytes_remote << " vs "
                << raw.update_bytes_remote << ")\n";
      ok = false;
    }
  }
  // Small integer labels and distances must make the encode win at least
  // once; the raw-wins branch needs scattered ids and values spread over
  // the 64-bit range, which this graph's bins do not produce --
  // test_exchange covers it with a crafted payload.
  for (const std::string algo : {"cc", "sssp"}) {
    const auto& adaptive = find(runs, algo, true, true, WireCodec::kAdaptive);
    if (adaptive.bins_compressed == 0) {
      std::cerr << "FAIL: " << algo << " adaptive compression never chose"
                << " an encoded form\n";
      ok = false;
    }
  }
  // ---- topology contracts -------------------------------------------------
  for (const TopologyRecord& r : topo_runs) {
    if (!r.valid) {
      std::cerr << "FAIL: " << r.topology << " BFS at " << r.nodes
                << " nodes diverged from serial BFS\n";
      ok = false;
    }
  }
  for (const int nodes : {2, 4, 8, 16, 32, 64}) {
    int log2_nodes = 0;
    while ((1 << log2_nodes) < nodes) ++log2_nodes;
    const auto& butterfly = find_topology(topo_runs, nodes, "butterfly");
    if (butterfly.inter_hops != log2_nodes ||
        butterfly.max_inter_partners != 1) {
      std::cerr << "FAIL: butterfly at " << nodes << " nodes shows "
                << butterfly.inter_hops << " inter hops x "
                << butterfly.max_inter_partners << " partners, want "
                << log2_nodes << " x 1\n";
      ok = false;
    }
    const auto& hierarchical = find_topology(topo_runs, nodes, "hierarchical");
    if (hierarchical.inter_hops != 1 ||
        hierarchical.max_inter_partners != nodes - 1) {
      std::cerr << "FAIL: hierarchical at " << nodes << " nodes shows "
                << hierarchical.inter_hops << " inter hops x "
                << hierarchical.max_inter_partners << " partners, want 1 x "
                << (nodes - 1) << "\n";
      ok = false;
    }
  }
  for (const TopologyRecord& r : dense_runs) {
    if (!r.valid) {
      std::cerr << "FAIL: dense " << r.topology << " round at " << r.nodes
                << " nodes delivered different kMin folds than flat\n";
      ok = false;
    }
  }
  for (const int nodes : {16, 32, 64}) {
    const auto& butterfly = find_topology(dense_runs, nodes, "butterfly");
    const auto& flat = find_topology(dense_runs, nodes, "flat");
    if (butterfly.modeled_ms >= flat.modeled_ms) {
      std::cerr << "FAIL: butterfly did not beat flat at " << nodes
                << " nodes on the dense round (" << butterfly.modeled_ms
                << " vs " << flat.modeled_ms << " ms)\n";
      ok = false;
    }
  }

  if (ok) {
    std::cerr << "checks passed: uniquify cuts SSSP/CC bytes, overlap lowers"
              << " modeled time, adaptive compression never loses to raw,"
              << " beats it on PageRank and encodes CC/SSSP bins,"
              << " butterfly shows its log2 hop pattern and beats"
              << " flat at >= 16 nodes, all results match the baselines\n";
  }

  emit_json(std::cout, runs, scale, spec, dg.num_vertices(), dg.num_edges(),
            static_cast<std::uint32_t>(th));
  emit_topology_json(std::cout, "topology_runs", topo_runs);
  emit_topology_json(std::cout, "dense_exchange_rounds", dense_runs);
  std::cout << "  \"checks_passed\": " << (ok ? "true" : "false") << "\n}\n";
  return ok ? 0 : 1;
}
