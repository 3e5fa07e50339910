// Landmark distance index: the "millions of users" serving story in
// miniature.  A distance-sketch tier answers "how far is u from v" queries
// with min over landmarks L of d(u, L) + d(L, v) -- social-graph ranking,
// routing preconditioners, and friend-suggestion features all run on this
// shape.  Building the index needs one BFS per landmark; the batched
// multi-source BFS (core::DistributedBatchBfs) builds all 64 columns of the
// sketch in ONE engine run, amortizing every adjacency sweep, delegate
// mask reduction and exchange across the lanes.
//
//   ./landmark_distance_index --scale=12 --landmarks=64 --gpus=1x2x2
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "baseline/serial_bfs.hpp"
#include "core/batch_bfs.hpp"
#include "core/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const int scale =
      static_cast<int>(cli.get_int("scale", 12, "RMAT graph scale"));
  const int landmarks = static_cast<int>(
      cli.get_int("landmarks", 64, "landmark count (<= 64, one lane each)"));
  const std::string gpus = cli.get_string("gpus", "1x2x2", "cluster NxRxG");
  if (cli.help_requested()) {
    cli.print_help("64-landmark distance sketch from one batched BFS run");
    return 0;
  }

  const graph::EdgeList g = graph::rmat_graph500({.scale = scale, .seed = 21});
  const graph::HostCsr host = graph::build_host_csr(g);
  const sim::ClusterSpec spec = sim::ClusterSpec::parse(gpus);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 32);
  std::printf("social graph: %llu vertices, %llu edges, cluster %dx%d\n",
              static_cast<unsigned long long>(dg.num_vertices()),
              static_cast<unsigned long long>(dg.num_edges()),
              spec.num_ranks, spec.gpus_per_rank);

  // ---- Landmark selection: the highest-degree vertices (classic choice:
  // hubs cover the most shortest paths). ----------------------------------
  std::vector<VertexId> order(dg.num_vertices());
  for (VertexId v = 0; v < dg.num_vertices(); ++v) order[v] = v;
  const std::size_t keep = std::min<std::size_t>(
      static_cast<std::size_t>(landmarks), order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](VertexId a, VertexId b) {
                      return dg.degrees()[a] > dg.degrees()[b];
                    });
  std::vector<VertexId> sources(
      order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep));

  // ---- One batched run builds every sketch column. ----------------------
  core::DistributedBatchBfs batch(dg, cluster, {});
  const core::BatchBfsResult index = batch.run(sources);
  std::printf("\nbatched index build: %zu landmarks in one run, lane width "
              "%d\n  iterations %d, modeled %.3f ms, %.1f lane bits per "
              "frontier vertex\n",
              sources.size(), index.metrics.lane_bits, index.metrics.iterations,
              index.metrics.modeled_ms,
              [&] {
                double bits = 0, verts = 0;
                for (const auto& it : index.metrics.per_iteration) {
                  bits += static_cast<double>(it.frontier_lane_bits);
                  verts += static_cast<double>(it.frontier_normals);
                }
                return verts > 0 ? bits / verts : 0.0;
              }());

  // The serving-cost comparison: the same index built one landmark at a
  // time (forced push, like the batch).
  core::BfsOptions single_options;
  single_options.direction_optimized = false;
  core::DistributedBfs single(dg, cluster, single_options);
  double singles_ms = 0;
  for (const VertexId s : sources) {
    singles_ms += single.run(s).metrics.modeled_ms;
  }
  std::printf("  sequential build of the same index: %.3f ms modeled -> "
              "batch speedup %.1fx\n",
              singles_ms, singles_ms / index.metrics.modeled_ms);

  // ---- Query demo: landmark upper bounds vs exact distances. ------------
  util::Table table({"query", "exact", "sketch_est", "via_landmark"});
  util::SequentialRng rng(99);
  int exact_hits = 0, queries = 0;
  for (int q = 0; q < 8; ++q) {
    const VertexId u = rng.next() % dg.num_vertices();
    const VertexId v = rng.next() % dg.num_vertices();
    const auto exact = baseline::serial_bfs(host, u);
    if (exact[v] == kUnvisited) continue;

    Depth best = kUnvisited;
    VertexId best_landmark = kInvalidVertex;
    for (std::size_t l = 0; l < sources.size(); ++l) {
      const Depth du = index.distances[l][u];
      const Depth dv = index.distances[l][v];
      if (du == kUnvisited || dv == kUnvisited) continue;
      const Depth est = du + dv;
      if (best == kUnvisited || est < best) {
        best = est;
        best_landmark = sources[l];
      }
    }
    ++queries;
    if (best == exact[v]) ++exact_hits;
    util::Table& row = table.row();
    row.add(std::to_string(u) + "->" + std::to_string(v))
        .add(static_cast<int>(exact[v]));
    if (best == kUnvisited) {
      // Connected pair no landmark covers: the sketch abstains (a serving
      // tier would fall back to an on-demand BFS).
      row.add("no cover").add("-");
    } else {
      row.add(static_cast<int>(best)).add(best_landmark);
    }
  }
  table.print(std::cout);
  std::printf("\n%d/%d queries answered exactly by the 2-hop sketch (the "
              "rest are upper bounds);\nper-query cost is 2 x %d sketch "
              "reads instead of a BFS.\n",
              exact_hits, queries, static_cast<int>(sources.size()));
  return 0;
}
