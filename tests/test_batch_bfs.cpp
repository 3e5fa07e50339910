#include "core/batch_bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/serial_bfs.hpp"
#include "bfs_golden.hpp"
#include "core/bfs.hpp"
#include "core/frontier.hpp"
#include "core/query_scheduler.hpp"
#include "core/validate.hpp"
#include "core/visit.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

/// Batched multi-source BFS: every lane must be bit-exact against the
/// serial single-source reference (depths and a valid per-lane BFS tree),
/// and the one-source batch must reproduce the pinned single-source runs
/// counter for counter.
namespace dsbfs::core {
namespace {

enum class GraphFamily { kRmat, kGrid };

struct BatchCase {
  std::string name;
  GraphFamily family;
  int ranks, gpus;
  std::uint32_t threshold;
  std::size_t batch;  // number of sources
  bool uniquify = false;
  comm::WireCodec codec = comm::WireCodec::kRaw;
};

graph::EdgeList make_graph(GraphFamily family) {
  switch (family) {
    case GraphFamily::kRmat:
      return graph::rmat_graph500({.scale = 10, .seed = 81});
    case GraphFamily::kGrid:
      return graph::grid_graph(32, 32);
  }
  return {};
}

std::vector<VertexId> pick_sources(const DistributedBatchBfs& bfs,
                                   std::size_t count) {
  std::vector<VertexId> sources;
  sources.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    sources.push_back(bfs.sample_source(k * 13 + 1));
  }
  return sources;
}

class BatchBfsProperty : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchBfsProperty, EveryLaneMatchesSerialWithValidParents) {
  const BatchCase c = GetParam();
  const graph::EdgeList g = make_graph(c.family);
  sim::ClusterSpec spec;
  spec.num_ranks = c.ranks;
  spec.gpus_per_rank = c.gpus;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, c.threshold);
  const graph::HostCsr csr = graph::build_host_csr(g);

  BfsOptions options{.direction_optimized = false};
  options.run.uniquify = c.uniquify;
  options.run.codec = c.codec;
  options.compute_parents = true;
  DistributedBatchBfs bfs(dg, cluster, options);
  const std::vector<VertexId> sources = pick_sources(bfs, c.batch);

  const BatchBfsResult r = bfs.run(sources);
  EXPECT_EQ(r.metrics.lane_bits, util::lane_width_for(c.batch));
  ASSERT_EQ(r.distances.size(), sources.size());
  ASSERT_EQ(r.parents.size(), sources.size());

  for (std::size_t lane = 0; lane < sources.size(); ++lane) {
    const auto expected = baseline::serial_bfs(csr, sources[lane]);
    const ValidationReport ref =
        validate_against_reference(r.distances[lane], expected);
    ASSERT_TRUE(ref.ok) << "lane " << lane << ": " << ref.error;

    const ValidationReport tree =
        validate_parents(g, sources[lane], r.distances[lane], r.parents[lane]);
    ASSERT_TRUE(tree.ok) << "lane " << lane << ": " << tree.error;
  }

  const RunMetrics& m = r.metrics;
  EXPECT_GT(m.iterations, 0);
  EXPECT_GT(m.edges_traversed, 0u);
}

std::vector<BatchCase> batch_cases() {
  std::vector<BatchCase> cases;
  // The lane-width ladder on both families: 1 (degenerate single-source),
  // 3 (partial byte lane), 32, 64.
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{32}, std::size_t{64}}) {
    cases.push_back({"rmat_w" + std::to_string(batch), GraphFamily::kRmat, 2,
                     2, 16, batch});
    cases.push_back({"grid_w" + std::to_string(batch), GraphFamily::kGrid, 2,
                     2, 4, batch});
  }
  // Topology variants at full width.
  cases.push_back({"rmat_w64_4x1", GraphFamily::kRmat, 4, 1, 16, 64});
  cases.push_back({"rmat_w64_1x4", GraphFamily::kRmat, 1, 4, 16, 64});
  cases.push_back({"rmat_w64_3x2", GraphFamily::kRmat, 3, 2, 16, 64});
  // Exchange levers must stay bit-exact.
  using comm::WireCodec;
  cases.push_back({"rmat_w64_u", GraphFamily::kRmat, 2, 2, 16, 64, true,
                   WireCodec::kRaw});
  cases.push_back({"rmat_w64_a", GraphFamily::kRmat, 2, 2, 16, 64, false,
                   WireCodec::kAdaptive});
  cases.push_back({"rmat_w64_ua", GraphFamily::kRmat, 2, 2, 16, 64, true,
                   WireCodec::kAdaptive});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchBfsProperty,
                         ::testing::ValuesIn(batch_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(BatchBfsRegression, WidthOneReproducesSingleSourceCountersExactly) {
  // A one-source batch is the single-source BFS: forced push, it must
  // reproduce the pinned DistributedBfs run bit for bit -- iterations,
  // per-kernel work, wire and mask-reduce bytes, modeled time, distances
  // (bfs_golden.hpp) -- and match the serial reference.
  golden::BfsGoldenSetup setup;
  const golden::BfsGolden& gold = golden::kBfsGoldens[1];
  ASSERT_FALSE(gold.direction_optimized);
  DistributedBatchBfs batch(setup.dg, setup.cluster);
  const std::vector<VertexId> sources{
      batch.sample_source(golden::BfsGoldenSetup::kSourceIndex)};
  const BatchBfsResult br = batch.run(sources);

  EXPECT_EQ(br.metrics.lane_bits, 1);
  ASSERT_EQ(br.distances.size(), 1u);
  golden::expect_bfs_golden(gold, br.distances[0], {}, br.metrics);
  EXPECT_EQ(br.distances[0],
            baseline::serial_bfs(graph::build_host_csr(setup.edges),
                                 sources[0]));
}

/// Run-summed per-kernel work: {dd, dn, nd, nn} edges and vertices.
struct KernelTotals {
  std::uint64_t edges[4] = {};
  std::uint64_t vertices[4] = {};
};

KernelTotals kernel_totals(const sim::RunCounters& counters) {
  KernelTotals t;
  for (const auto& ic : counters.iterations) {
    for (const auto& gc : ic.gpu) {
      const sim::KernelCounters* kernels[4] = {&gc.dd, &gc.dn, &gc.nd, &gc.nn};
      for (int i = 0; i < 4; ++i) {
        t.edges[i] += kernels[i]->edges;
        t.vertices[i] += kernels[i]->vertices;
      }
    }
  }
  return t;
}

TEST(BatchBfsGolden, CountersAndModeledTimeArePinned) {
  // RMAT-12 on 2x2: full-width forced push, a byte-wide hybrid batch and
  // full width with parents.  The lane kernels' write discipline and the
  // lane state layout may change; the traversal they perform may not.
  //
  // `remote_bytes_before` is the pin from before the nn visit shipped each
  // (target, lane) once per sender (modeled 0.45064991155990425 ms for both
  // w64 runs, 0.36811980969644742 ms for w8_hybrid): that filter may only
  // remove bytes.  `remote_bytes_per_edge` and `modeled_ms_per_edge` are
  // the pins from before the nn visit merged the lanes that reach one
  // target in one iteration into one record (it binned one record per
  // edge): that merge may only remove bytes and modeled time.
  // `modeled_ms_before_cap` is the pin from before the early-exit pull
  // estimate was capped at its candidates' edge mass and the direction
  // factors became the device model's rate ratios (w8_hybrid then scanned
  // dn 22013 / nd 38376 edges over 5643 / 7363 vertices): that may only
  // remove modeled time, and forced push must not move.
  struct Golden {
    const char* name;
    std::size_t batch;
    bool direction_optimized;
    bool parents;
    int lane_bits, iterations;
    std::uint64_t edges[4], vertices[4];  // dd, dn, nd, nn
    std::uint64_t remote_bytes, mask_bytes;
    double modeled_ms;
    std::uint64_t remote_bytes_before;
    std::uint64_t remote_bytes_per_edge;
    double modeled_ms_per_edge;
    double modeled_ms_before_cap;
  };
  const Golden goldens[] = {
      {"w64_push", 64, false, false, 64, 7,
       {274289, 45255, 42290, 5944}, {8070, 8070, 7076, 7076}, 30144, 100992,
       0.44973117001245322, 36300, 32532, 0.45007990098317535,
       0.44973117001245322},
      {"w8_hybrid", 8, true, false, 8, 7,
       {104262, 11967, 10634, 4469}, {4868, 3552, 2585, 5204}, 9380, 9468,
       0.36351312652149442, 11265, 9840, 0.3677218523447171,
       0.3675881665214944},
      {"w64_parents", 64, false, true, 64, 7,
       {274289, 45255, 42290, 5944}, {8070, 8070, 7076, 7076}, 30144, 100992,
       0.44973117001245322, 36300, 32532, 0.45007990098317535,
       0.44973117001245322},
  };
  const graph::EdgeList g = graph::rmat_graph500({.scale = 12, .seed = 91});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 32);
  for (const Golden& gold : goldens) {
    SCOPED_TRACE(gold.name);
    BfsOptions options;
    options.direction_optimized = gold.direction_optimized;
    options.compute_parents = gold.parents;
    DistributedBatchBfs bfs(dg, cluster, options);
    const BatchBfsResult r = bfs.run(pick_sources(bfs, gold.batch));
    const RunMetrics& m = r.metrics;
    EXPECT_EQ(m.lane_bits, gold.lane_bits);
    EXPECT_EQ(m.iterations, gold.iterations);
    const KernelTotals k = kernel_totals(m.counters);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(k.edges[i], gold.edges[i]) << "kernel " << i;
      EXPECT_EQ(k.vertices[i], gold.vertices[i]) << "kernel " << i;
    }
    EXPECT_LE(gold.remote_bytes, gold.remote_bytes_before);
    EXPECT_LE(gold.remote_bytes, gold.remote_bytes_per_edge);
    EXPECT_LE(gold.modeled_ms, gold.modeled_ms_per_edge);
    EXPECT_LE(gold.modeled_ms, gold.modeled_ms_before_cap);
    if (!gold.direction_optimized) {
      EXPECT_EQ(gold.modeled_ms, gold.modeled_ms_before_cap);
    }
    EXPECT_EQ(m.exchange_remote_bytes, gold.remote_bytes);
    EXPECT_EQ(m.mask_reduce_bytes, gold.mask_bytes);
    EXPECT_NEAR(m.modeled_ms, gold.modeled_ms, 1e-12 * gold.modeled_ms);
  }
}

/// Drives the nn visit at width W over two rounds whose frontier holds
/// every local normal, each in one lane (a different lane pattern per
/// round), so many frontier vertices reach the same target in different
/// lanes.  Each round must bin every (owner, local) target at most once,
/// carrying the OR of the lanes that reach it this round and were not
/// shipped to it before, and leave `pending` clear.
template <int W>
void expect_nn_visit_bins_each_target_once() {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 83});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const graph::DistributedGraph dg = build_distributed(g, spec, 64);
  const graph::LocalGraph& lg = dg.local(1);
  const graph::GhostTable& ghosts = lg.ghosts();
  LaneState s(lg, spec.total_gpus(), W, /*record_parents=*/false);
  std::map<VertexId, std::uint64_t> shipped;  // by global target
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    s.frontier.clear();
    s.frontier_normal.clear_all();
    std::map<VertexId, std::uint64_t> reached;
    std::uint64_t edges = 0;
    for (LocalId v = 0; v < lg.num_local_normals(); ++v) {
      const std::uint64_t f = 1ULL << ((round == 0 ? v : v / 3) % W);
      s.frontier.push_back(v);
      s.frontier_normal.or_lanes(v, f);
      for (const LocalId ghost : lg.nn().row(v)) {
        reached[ghosts.global(ghost)] |= f;
        ++edges;
      }
    }
    std::map<VertexId, std::uint64_t> expected;
    for (const auto& [target, lanes] : reached) {
      const std::uint64_t fresh = lanes & ~shipped[target];
      if (fresh != 0) expected[target] = fresh;
      shipped[target] |= lanes;
    }

    visit_nn_lanes<W>(s);
    std::set<std::pair<int, LocalId>> binned;
    std::map<VertexId, std::uint64_t> got;
    for (int o = 0; o < spec.total_gpus(); ++o) {
      const sim::GpuCoord owner = spec.coord_of(o);
      for (const comm::VertexUpdate& u : s.bins[static_cast<std::size_t>(o)]) {
        EXPECT_TRUE(binned.insert({o, u.vertex}).second)
            << "target (" << o << ", " << u.vertex << ") binned twice";
        got[spec.global_vertex(owner.rank, owner.gpu, u.vertex)] = u.value;
      }
      s.bins[static_cast<std::size_t>(o)].clear();
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(s.bins_total, binned.size());
    EXPECT_EQ(s.iter.nn.edges, edges);
    EXPECT_TRUE(s.pending.none());
    // Shared targets: one record per edge would be more records.
    if (round == 0) EXPECT_LT(2 * got.size(), edges) << got.size();
  }
}

TEST(NnVisit, BinsEachTargetOncePerIterationAtWidth8) {
  expect_nn_visit_bins_each_target_once<8>();
}

TEST(NnVisit, BinsEachTargetOncePerIterationAtWidth64) {
  expect_nn_visit_bins_each_target_once<64>();
}

TEST(BatchBfs, ParentStorageOnlyWhenRecordingParents) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 88});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  const graph::LocalGraph& lg = dg.local(0);
  ASSERT_GT(dg.num_delegates(), 0u);

  const LaneState lean(lg, spec.total_gpus(), 64, /*record_parents=*/false);
  EXPECT_FALSE(lean.record_parents);
  EXPECT_TRUE(lean.parent_normal.empty());
  EXPECT_TRUE(lean.parent_delegate_dd.empty());
  EXPECT_TRUE(lean.parent_delegate_nd.empty());

  const LaneState full(lg, spec.total_gpus(), 64, /*record_parents=*/true);
  EXPECT_EQ(full.parent_normal.size(), lg.num_local_normals() * 64);
  EXPECT_EQ(full.parent_delegate_dd.size(), dg.num_delegates() * 64);
  EXPECT_EQ(full.parent_delegate_nd.size(), dg.num_delegates() * 64);

  // Parents on or off, the traversal is the same: distances and every
  // counter the model replays.
  std::vector<BatchBfsResult> runs;
  for (const bool parents : {false, true}) {
    BfsOptions options{.direction_optimized = false};
    options.compute_parents = parents;
    DistributedBatchBfs bfs(dg, cluster, options);
    runs.push_back(bfs.run(pick_sources(bfs, 64)));
  }
  const RunMetrics& off = runs[0].metrics;
  const RunMetrics& on = runs[1].metrics;
  EXPECT_TRUE(runs[0].parents.empty());
  EXPECT_EQ(runs[1].parents.size(), 64u);
  EXPECT_EQ(runs[0].distances, runs[1].distances);
  EXPECT_EQ(off.iterations, on.iterations);
  EXPECT_EQ(off.delegate_reduce_iterations, on.delegate_reduce_iterations);
  EXPECT_EQ(off.edges_traversed, on.edges_traversed);
  const KernelTotals k_off = kernel_totals(off.counters);
  const KernelTotals k_on = kernel_totals(on.counters);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(k_off.edges[i], k_on.edges[i]) << "kernel " << i;
    EXPECT_EQ(k_off.vertices[i], k_on.vertices[i]) << "kernel " << i;
  }
  EXPECT_EQ(off.exchange_remote_bytes, on.exchange_remote_bytes);
  EXPECT_EQ(off.exchange_local_bytes, on.exchange_local_bytes);
  EXPECT_EQ(off.mask_reduce_bytes, on.mask_reduce_bytes);
  EXPECT_EQ(off.counters.delegate_mask_bytes, on.counters.delegate_mask_bytes);
  EXPECT_EQ(off.modeled_ms, on.modeled_ms);
}

TEST(BatchBfs, LaneOccupancyCountersAndScaledMaskBytes) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 83});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  DistributedBatchBfs bfs(dg, cluster);
  const std::vector<VertexId> sources = pick_sources(bfs, 64);
  const BatchBfsResult r = bfs.run(sources);

  EXPECT_EQ(r.metrics.lane_bits, 64);
  // The mask reduction moves d * 64 / 8 bytes per round.
  EXPECT_EQ(r.metrics.counters.delegate_mask_bytes,
            static_cast<std::uint64_t>(dg.num_delegates()) * 8);
  // Lane occupancy flows through the per-iteration trace: the shared
  // sweeps advanced more lane bits than frontier vertices in the dense
  // rounds (that is the amortization).
  std::uint64_t frontier_vertices = 0, frontier_bits = 0, delegate_bits = 0;
  for (const IterationStats& it : r.metrics.per_iteration) {
    frontier_vertices += it.frontier_normals;
    frontier_bits += it.frontier_lane_bits;
    delegate_bits += it.new_delegate_lane_bits;
  }
  EXPECT_GT(frontier_bits, frontier_vertices);
  EXPECT_GT(delegate_bits, 0u);
}

TEST(BatchBfs, DuplicateSourcesProduceIdenticalLanes) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 84});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  DistributedBatchBfs bfs(dg, cluster);
  const VertexId s = bfs.sample_source(5);
  const std::vector<VertexId> sources{s, s, s};
  const BatchBfsResult r = bfs.run(sources);
  ASSERT_EQ(r.distances.size(), 3u);
  EXPECT_EQ(r.distances[0], r.distances[1]);
  EXPECT_EQ(r.distances[0], r.distances[2]);
}

TEST(BatchBfs, EachSenderShipsEachNnTargetOnce) {
  // 64 identical sources move every lane together, so each nn target is
  // binned once per GPU with all 64 lanes: a GPU's run-summed binned
  // vertices stay within the normal-vertex count, as at one lane.
  const graph::EdgeList g = graph::rmat_graph500(
      {.scale = 10, .edge_factor = 16, .a = 0.45, .b = 0.22, .c = 0.22,
       .seed = 23});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 64);
  const std::uint64_t normals = dg.num_vertices() - dg.num_delegates();
  DistributedBatchBfs bfs(dg, cluster);
  const VertexId source = bfs.sample_source(2);
  const std::vector<VertexId> sources(64, source);
  const BatchBfsResult r = bfs.run(sources);

  const auto expected = baseline::serial_bfs(graph::build_host_csr(g), source);
  ASSERT_EQ(r.distances.size(), 64u);
  for (std::size_t lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(r.distances[lane], expected) << "lane " << lane;
  }
  std::vector<std::uint64_t> binned(
      static_cast<std::size_t>(spec.total_gpus()));
  for (const auto& it : r.metrics.counters.iterations) {
    for (std::size_t gpu = 0; gpu < binned.size(); ++gpu) {
      binned[gpu] += it.gpu[gpu].bin_vertices;
    }
  }
  for (std::size_t gpu = 0; gpu < binned.size(); ++gpu) {
    EXPECT_GT(binned[gpu], 0u) << "gpu " << gpu;
    EXPECT_LE(binned[gpu], normals) << "gpu " << gpu;
  }
}

TEST(BatchBfs, SampleSourceRejectsGraphsWithoutEdges) {
  // Source sampling draws until it hits a vertex with an out-edge; with
  // none to hit it must fail loudly instead of drawing forever.
  graph::EdgeList g;
  g.num_vertices = 8;
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  EXPECT_THROW(DistributedBfs(dg, cluster).sample_source(1),
               std::invalid_argument);
  EXPECT_THROW(DistributedBatchBfs(dg, cluster).sample_source(1),
               std::invalid_argument);

  // One edge is enough: every draw lands on one of its endpoints.
  g.add(2, 5);
  g.add(5, 2);
  const graph::DistributedGraph one_edge = build_distributed(g, spec, 16);
  for (std::uint64_t k = 0; k < 8; ++k) {
    const VertexId s = DistributedBfs(one_edge, cluster).sample_source(k);
    EXPECT_TRUE(s == 2 || s == 5) << s;
    EXPECT_EQ(DistributedBatchBfs(one_edge, cluster).sample_source(k), s);
  }
}

TEST(BatchBfs, UniquifyCutsWireBytesAndStaysBitExact) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 85});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);

  // The nn visit already bins one record per target per round, so a
  // sender's own bins hold no duplicates: U merges only what L's column
  // gather brings together from two senders.
  for (const bool local_all2all : {false, true}) {
    SCOPED_TRACE(local_all2all ? "L on" : "L off");
    std::uint64_t bytes_on = 0, bytes_off = 0;
    std::vector<std::vector<Depth>> dist_on, dist_off;
    for (const bool uniquify : {false, true}) {
      BfsOptions options{.direction_optimized = false};
      options.local_all2all = local_all2all;
      options.run.uniquify = uniquify;
      DistributedBatchBfs bfs(dg, cluster, options);
      const std::vector<VertexId> sources = pick_sources(bfs, 64);
      const BatchBfsResult r = bfs.run(sources);
      (uniquify ? bytes_on : bytes_off) = r.metrics.exchange_remote_bytes;
      (uniquify ? dist_on : dist_off) = r.distances;
    }
    EXPECT_EQ(dist_on, dist_off);
    if (local_all2all) {
      // Dense RMAT rounds send both column GPUs' records to many of the
      // same targets; the OR coalesce must strictly shrink the wire volume.
      EXPECT_LT(bytes_on, bytes_off);
    } else {
      EXPECT_EQ(bytes_on, bytes_off);
    }
  }
}

TEST(BatchBfs, LocalAll2AllGathersLaneWordsToo) {
  // L means the same at every width: the (id, lane-word) bins bound for
  // another rank are first gathered on the same-column local GPU, so each
  // GPU talks to one remote peer per round instead of two.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 85});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  const graph::HostCsr csr = graph::build_host_csr(g);

  std::uint64_t dest_ranks[2] = {0, 0};
  for (const bool local_all2all : {false, true}) {
    SCOPED_TRACE(local_all2all ? "L on" : "L off");
    BfsOptions options{.direction_optimized = false};
    options.local_all2all = local_all2all;
    DistributedBatchBfs bfs(dg, cluster, options);
    const std::vector<VertexId> sources = pick_sources(bfs, 8);
    const BatchBfsResult r = bfs.run(sources);
    ASSERT_EQ(r.metrics.lane_bits, 8);
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      EXPECT_EQ(r.distances[lane], baseline::serial_bfs(csr, sources[lane]))
          << "lane " << lane;
    }
    for (const sim::IterationCounters& row : r.metrics.counters.iterations) {
      for (const sim::GpuIterationCounters& c : row.gpu) {
        dest_ranks[local_all2all] +=
            static_cast<std::uint64_t>(c.send_dest_ranks);
      }
    }
  }
  EXPECT_GT(dest_ranks[true], 0u);
  EXPECT_LT(dest_ranks[true], dest_ranks[false]);
}

TEST(BatchBfs, RejectsBadBatches) {
  const graph::EdgeList g = graph::path_graph(8);
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 1;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 4);
  DistributedBatchBfs bfs(dg, cluster);
  EXPECT_THROW(bfs.run(std::vector<VertexId>{}), std::invalid_argument);
  EXPECT_THROW(bfs.run(std::vector<VertexId>(65, 0)), std::invalid_argument);
  EXPECT_THROW(bfs.run(std::vector<VertexId>{999}), std::out_of_range);
}

// ---- mid-flight lane-reseed edge cases (the serving scheduler re-admits
// queries into lanes the batched substrate just drained) -------------------

void expect_all_queries_serial_exact(const graph::EdgeList& g,
                                     const SchedulerOutcome& out) {
  const graph::HostCsr csr = graph::build_host_csr(g);
  for (std::size_t i = 0; i < out.queries.size(); ++i) {
    const ServedQuery& q = out.queries[i];
    const ValidationReport ref = validate_against_reference(
        q.distances, baseline::serial_bfs(csr, q.source));
    ASSERT_TRUE(ref.ok) << "query " << i << " (source " << q.source
                        << "): " << ref.error;
  }
}

TEST(BatchBfs, SlotIdsOverflowLoudlyAtThe32BitBoundary) {
  // The parent round, betweenness and batched SSSP key (vertex, lane)
  // pairs by item * stride + lane in a 32-bit id.  2^26 local items at
  // W = 64 reach slot 2^32 - 1 == kInvalidLocal; one item fewer does not.
  constexpr std::uint64_t kItems = std::uint64_t{1} << 26;
  EXPECT_THROW(check_slot_ids_fit(kItems, 64), std::overflow_error);
  EXPECT_NO_THROW(check_slot_ids_fit(kItems - 1, 64));
  EXPECT_THROW(check_slot_ids_fit(std::uint64_t{1} << 32, 1),
               std::overflow_error);
  EXPECT_NO_THROW(check_slot_ids_fit(kInvalidLocal, 1));
}

TEST(BatchBfs, ReseedingAFullyCoveredLaneStaysExact) {
  // The grid is connected: each query visits *every* vertex, so every
  // successive occupant of the single lane re-seeds a lane whose visited
  // columns were fully set.  A missed clear anywhere shows up as a wrong
  // (stale, smaller) depth.
  const graph::EdgeList g = graph::grid_graph(16, 16);
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 4);
  QueryScheduler scheduler(dg, cluster, {.width = 1});
  std::vector<QueryArrival> trace;
  for (std::uint64_t k = 0; k < 3; ++k) {
    trace.push_back({scheduler.sample_source(k * 7 + 1), 0});
  }
  const SchedulerOutcome out = scheduler.run(trace);
  ASSERT_EQ(out.queries.size(), 3u);
  for (const ServedQuery& q : out.queries) {
    EXPECT_EQ(q.lane, 0);  // one lane serves the whole trace
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(q.distances.begin(), q.distances.end(),
                             kUnvisited)),
              0u);
  }
  expect_all_queries_serial_exact(g, out);
}

TEST(BatchBfs, DuplicateSourcesAcrossSuccessiveLaneOccupantsAgree) {
  // The same source served three times through the same recycled lane must
  // answer identically each time (and match the serial reference): the
  // reseed may not leak the previous occupant's identical-looking state.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 86});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  QueryScheduler scheduler(dg, cluster, {.width = 1});
  const VertexId s = scheduler.sample_source(5);
  const std::vector<QueryArrival> trace{{s, 0}, {s, 0}, {s, 0}};
  const SchedulerOutcome out = scheduler.run(trace);
  ASSERT_EQ(out.queries.size(), 3u);
  EXPECT_EQ(out.queries[0].distances, out.queries[1].distances);
  EXPECT_EQ(out.queries[0].distances, out.queries[2].distances);
  // Identical traversal shape each time (the modeled ms may differ: the
  // recycled occupants' first iteration carries the reseed charge).
  EXPECT_EQ(out.queries[0].retire_iteration - out.queries[0].admit_iteration,
            out.queries[1].retire_iteration - out.queries[1].admit_iteration);
  EXPECT_EQ(out.queries[0].retire_iteration - out.queries[0].admit_iteration,
            out.queries[2].retire_iteration - out.queries[2].admit_iteration);
  expect_all_queries_serial_exact(g, out);
}

TEST(BatchBfs, WidthQuantizationBoundariesServeExactly) {
  // util::lane_width_for quantizes the lane budget to storage widths at
  // 1 -> 8 and 32 -> 64; the scheduler must stay exact right across both
  // boundaries (unused storage lanes never leak into served ones).
  EXPECT_EQ(util::lane_width_for(1), 1);
  EXPECT_EQ(util::lane_width_for(2), 8);
  EXPECT_EQ(util::lane_width_for(32), 32);
  EXPECT_EQ(util::lane_width_for(33), 64);

  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 87});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  for (const std::size_t width : {std::size_t{2}, std::size_t{33}}) {
    QueryScheduler scheduler(dg, cluster, {.width = width});
    const std::vector<QueryArrival> trace = make_arrival_trace(
        dg, {.queries = width + 3, .rate = 8.0,
             .pattern = ArrivalPattern::kUniform, .seed = 43});
    const SchedulerOutcome out = scheduler.run(trace);
    EXPECT_EQ(out.metrics.run.lane_bits, util::lane_width_for(width));
    // The budget is the requested width, not the quantized storage width.
    for (const ServedQuery& q : out.queries) {
      EXPECT_LT(static_cast<std::size_t>(q.lane), width);
    }
    expect_all_queries_serial_exact(g, out);
  }
}


// ---- deep graphs: the bit-sliced depth planes (LaneState::depth_planes)
// grow one plane each time the depth crosses a power of two ---------------

/// A 600-vertex path with five leaves on every hundredth path vertex
/// (50, 150, ..., 550).  At threshold 4 those hubs (degree 7) are delegates,
/// so the deep frontier runs through normal and delegate vertices alike.
/// From a path end the depth reaches 599, which takes ten depth planes,
/// more than one byte of distance.
graph::EdgeList deep_comb() {
  constexpr VertexId kPath = 600;
  graph::EdgeList g;
  g.num_vertices = kPath + 30;
  for (VertexId v = 0; v + 1 < kPath; ++v) g.add(v, v + 1);
  VertexId leaf = kPath;
  for (VertexId hub = 50; hub < kPath; hub += 100) {
    for (int i = 0; i < 5; ++i) g.add(hub, leaf++);
  }
  return graph::make_symmetric(g);
}

/// `count` sources spread over the comb; source 0 is the path end.
std::vector<VertexId> deep_sources(std::size_t count) {
  std::vector<VertexId> sources;
  for (std::size_t l = 0; l < count; ++l) sources.push_back((l * 97) % 630);
  return sources;
}

class DeepGraph : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.num_ranks = 2;
    spec_.gpus_per_rank = 2;
    dg_ = build_distributed(g_, spec_, 4);
    ASSERT_GT(dg_.num_delegates(), 0u);
  }

  void expect_serial_exact(const std::vector<VertexId>& sources,
                           const BatchBfsResult& r) const {
    ASSERT_EQ(r.distances.size(), sources.size());
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      EXPECT_EQ(r.distances[lane], baseline::serial_bfs(csr_, sources[lane]))
          << "lane " << lane;
    }
  }

  const graph::EdgeList g_ = deep_comb();
  const graph::HostCsr csr_ = graph::build_host_csr(g_);
  sim::ClusterSpec spec_;
  graph::DistributedGraph dg_;
};

TEST_F(DeepGraph, EveryLaneMatchesSerialPastSeveralPowersOfTwo) {
  sim::Cluster cluster(spec_);
  for (const std::size_t batch : {std::size_t{8}, std::size_t{64}}) {
    BfsOptions options{.direction_optimized = false};
    options.compute_parents = true;
    const std::vector<VertexId> sources = deep_sources(batch);
    const BatchBfsResult r =
        DistributedBatchBfs(dg_, cluster, options).run(sources);
    EXPECT_EQ(*std::max_element(r.distances[0].begin(), r.distances[0].end()),
              599);
    EXPECT_GT(r.metrics.iterations, 599);
    expect_serial_exact(sources, r);
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      const ValidationReport tree = validate_parents(
          g_, sources[lane], r.distances[lane], r.parents[lane]);
      ASSERT_TRUE(tree.ok) << "batch " << batch << " lane " << lane << ": "
                           << tree.error;
    }
  }
}

TEST_F(DeepGraph, RecycledLanesRestartTheirPlanesAtDeepAdmissions) {
  // Two lanes, five path-spanning queries: the later ones are admitted at
  // boundaries past depth 512, into lanes whose planes the previous
  // occupant filled, so their stamps carry high plane bits and a missed
  // plane clear would corrupt every distance.
  sim::Cluster cluster(spec_);
  QueryScheduler scheduler(dg_, cluster, {.width = 2});
  std::vector<QueryArrival> trace;
  for (const VertexId source : {0, 599, 300, 5, 629}) {
    trace.push_back({source, 0});
  }
  const SchedulerOutcome out = scheduler.run(trace);
  ASSERT_EQ(out.queries.size(), trace.size());
  EXPECT_EQ(out.metrics.recycled_admissions, 3u);
  EXPECT_GT(out.queries.back().admit_iteration, 512u);
  expect_all_queries_serial_exact(g_, out);
}

TEST_F(DeepGraph, RollbackToACheckpointTakenBeforeAPlaneWasAdded) {
  // Checkpoints every 200 iterations and GPU 1 dying at iteration 300: the
  // rollback restores the iteration-200 snapshot, which holds eight planes,
  // although the run had added the ninth at depth 256.  The replay must add
  // it again and end bit-exact.
  sim::Cluster cluster(spec_);
  const std::vector<VertexId> sources = deep_sources(8);
  BfsOptions options{.direction_optimized = false};
  options.compute_parents = true;
  const BatchBfsResult clean =
      DistributedBatchBfs(dg_, cluster, options).run(sources);
  options.run.resilience.checkpoint_interval = 200;
  options.run.resilience.faults.fail_gpu = 1;
  options.run.resilience.faults.fail_iteration = 300;
  const BatchBfsResult hurt =
      DistributedBatchBfs(dg_, cluster, options).run(sources);
  EXPECT_EQ(hurt.metrics.fault.rollbacks, 1);
  EXPECT_EQ(hurt.metrics.fault.replayed_iterations, 100);
  EXPECT_EQ(hurt.distances, clean.distances);
  EXPECT_EQ(hurt.parents, clean.parents);
  expect_serial_exact(sources, hurt);
}

}  // namespace
}  // namespace dsbfs::core
