#include "core/bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "baseline/serial_bfs.hpp"
#include "core/frontier.hpp"
#include "core/previsit.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "util/hash.hpp"

namespace dsbfs::core {
namespace {

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

/// Run the distributed BFS and compare with the serial reference.
void expect_matches_serial(const graph::EdgeList& g, sim::ClusterSpec spec,
                           std::uint32_t threshold, VertexId source,
                           BfsOptions options = {}) {
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, threshold);
  DistributedBfs bfs(dg, cluster, options);
  const BfsResult result = bfs.run(source);
  const auto expected = baseline::serial_bfs(graph::build_host_csr(g), source);
  ASSERT_EQ(result.distances.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(result.distances[v], expected[v])
        << "vertex " << v << " spec " << spec.to_string() << " th "
        << threshold << " src " << source;
  }
}

TEST(BfsSmall, SingleGpuPath) {
  expect_matches_serial(graph::path_graph(20), spec_of(1, 1), 4, 0);
}

TEST(BfsSmall, PathAcrossGpus) {
  // Path vertices scatter round-robin: every hop crosses GPUs via nn edges.
  expect_matches_serial(graph::path_graph(20), spec_of(2, 2), 4, 0);
  expect_matches_serial(graph::path_graph(20), spec_of(4, 1), 4, 7);
}

TEST(BfsSmall, StarWithDelegateCenter) {
  // Center has degree 63 > TH: becomes a delegate; every visit flows
  // through the delegate machinery.
  expect_matches_serial(graph::star_graph(64), spec_of(2, 2), 8, 0);
  // From a leaf: leaf -> delegate -> all leaves (nd then dn edges).
  expect_matches_serial(graph::star_graph(64), spec_of(2, 2), 8, 5);
}

TEST(BfsSmall, StarSourceIsDelegate) {
  expect_matches_serial(graph::star_graph(64), spec_of(3, 1), 4, 0);
}

TEST(BfsSmall, CycleNoDelegates) {
  // Max degree 2: all normal at TH >= 2; pure nn exchange test.
  expect_matches_serial(graph::cycle_graph(37), spec_of(2, 2), 4, 11);
}

TEST(BfsSmall, CycleAllDelegates) {
  // TH = 0: every vertex is a delegate; pure mask-reduction BFS.
  expect_matches_serial(graph::cycle_graph(24), spec_of(2, 2), 0, 3);
}

TEST(BfsSmall, GridMixedThresholds) {
  const graph::EdgeList g = graph::grid_graph(9, 7);
  for (const std::uint32_t th : {0u, 2u, 3u, 10u}) {
    expect_matches_serial(g, spec_of(2, 2), th, 0);
  }
}

TEST(BfsSmall, CompleteGraphEverythingDelegate) {
  expect_matches_serial(graph::complete_graph(24), spec_of(2, 2), 4, 13);
}

TEST(BfsSmall, BinaryTreeDeep) {
  expect_matches_serial(graph::binary_tree(255), spec_of(2, 2), 4, 0);
}

TEST(BfsSmall, DisconnectedComponentUnreached) {
  const graph::EdgeList g = graph::two_cliques(8);
  sim::Cluster cluster(spec_of(2, 2));
  const auto dg = build_distributed(g, spec_of(2, 2), 4);
  DistributedBfs bfs(dg, cluster);
  const BfsResult r = bfs.run(0);
  for (VertexId v = 0; v < 8; ++v) EXPECT_NE(r.distances[v], kUnvisited);
  for (VertexId v = 8; v < 16; ++v) EXPECT_EQ(r.distances[v], kUnvisited);
}

TEST(BfsSmall, IsolatedSourceTerminatesImmediately) {
  graph::EdgeList g;
  g.num_vertices = 10;
  g.add(1, 2);
  g.add(2, 1);
  sim::Cluster cluster(spec_of(2, 1));
  const auto dg = build_distributed(g, spec_of(2, 1), 4);
  DistributedBfs bfs(dg, cluster);
  const BfsResult r = bfs.run(0);  // vertex 0 has no edges
  EXPECT_EQ(r.distances[0], 0);
  EXPECT_EQ(r.distances[1], kUnvisited);
  EXPECT_LE(r.metrics.iterations, 1);
}

TEST(BfsSmall, SelfLoopsHarmless) {
  graph::EdgeList g;
  g.num_vertices = 6;
  g.add(0, 0);
  g.add(0, 1);
  g.add(1, 0);
  g.add(1, 2);
  g.add(2, 1);
  sim::Cluster cluster(spec_of(2, 1));
  const auto dg = build_distributed(g, spec_of(2, 1), 4);
  DistributedBfs bfs(dg, cluster);
  const BfsResult r = bfs.run(0);
  EXPECT_EQ(r.distances[0], 0);
  EXPECT_EQ(r.distances[1], 1);
  EXPECT_EQ(r.distances[2], 2);
}

TEST(BfsSmall, SourceOutOfRangeThrows) {
  const graph::EdgeList g = graph::path_graph(4);
  sim::Cluster cluster(spec_of(1, 1));
  const auto dg = build_distributed(g, spec_of(1, 1), 4);
  DistributedBfs bfs(dg, cluster);
  EXPECT_THROW(bfs.run(99), std::out_of_range);
}

TEST(BfsSmall, MismatchedClusterRejected) {
  const graph::EdgeList g = graph::path_graph(4);
  const auto dg = build_distributed(g, spec_of(2, 1), 4);
  sim::Cluster wrong(spec_of(1, 1));
  EXPECT_THROW(DistributedBfs(dg, wrong), std::invalid_argument);
}

TEST(BfsSmall, RepeatedRunsIndependent) {
  const graph::EdgeList g = graph::grid_graph(6, 6);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const auto dg = build_distributed(g, spec, 3);
  DistributedBfs bfs(dg, cluster);
  const BfsResult a = bfs.run(0);
  const BfsResult b = bfs.run(35);
  const BfsResult a2 = bfs.run(0);
  EXPECT_EQ(a.distances, a2.distances);
  EXPECT_NE(a.distances, b.distances);
}

TEST(BfsSmall, SingleVertexGraph) {
  graph::EdgeList g;
  g.num_vertices = 1;
  sim::Cluster cluster(spec_of(1, 1));
  const auto dg = build_distributed(g, spec_of(1, 1), 4);
  DistributedBfs bfs(dg, cluster);
  const BfsResult r = bfs.run(0);
  EXPECT_EQ(r.distances[0], 0);
}

TEST(BfsSmall, MoreGpusThanVertices) {
  // 3 vertices on 8 GPUs: most GPUs own nothing and must still participate
  // in every collective.
  const graph::EdgeList g = graph::path_graph(3);
  expect_matches_serial(g, spec_of(4, 2), 4, 0);
  expect_matches_serial(g, spec_of(8, 1), 4, 2);
}

TEST(BfsSmall, TwoVertexEdge) {
  graph::EdgeList g;
  g.num_vertices = 2;
  g.add(0, 1);
  g.add(1, 0);
  expect_matches_serial(g, spec_of(2, 1), 1, 0);
  expect_matches_serial(g, spec_of(2, 1), 0, 1);  // both delegates
}

TEST(BfsSmall, SampleSourceAlwaysHasEdges) {
  graph::EdgeList g;
  g.num_vertices = 100;
  g.add(7, 8);
  g.add(8, 7);
  const auto dg = build_distributed(g, spec_of(1, 1), 4);
  sim::Cluster cluster(spec_of(1, 1));
  DistributedBfs bfs(dg, cluster);
  for (std::uint64_t k = 0; k < 20; ++k) {
    const VertexId s = bfs.sample_source(k);
    EXPECT_TRUE(s == 7 || s == 8);
  }
}

TEST(BfsSmall, LocalAll2AllGoldenCounters) {
  // Local all2all (L) gathers same-column traffic over NVLink before the
  // remote send: with 2 GPUs per rank every GPU talks to one remote peer
  // instead of two.  Pinned so that a build which ignores L (232 local
  // bytes, 48 send ranks) fails here.
  struct Golden {
    bool uniquify;
    std::uint64_t remote_bytes, local_bytes, send_dest_ranks, uniquified;
    double modeled_ms;
  };
  const Golden goldens[] = {
      {false, 376, 432, 24, 0, 0.34363582622103322},
      {true, 344, 432, 24, 94, 0.35064416644362656},
  };
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 5});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  for (const Golden& gold : goldens) {
    SCOPED_TRACE(gold.uniquify ? "uniquify" : "no uniquify");
    BfsOptions options;
    options.local_all2all = true;
    options.run.uniquify = gold.uniquify;
    DistributedBfs bfs(dg, cluster, options);
    const VertexId source = bfs.sample_source(1);
    const BfsResult r = bfs.run(source);
    EXPECT_EQ(r.distances,
              baseline::serial_bfs(graph::build_host_csr(g), source));
    std::uint64_t send_dest_ranks = 0, uniquified = 0;
    for (const auto& it : r.metrics.counters.iterations) {
      for (const auto& c : it.gpu) {
        send_dest_ranks += static_cast<std::uint64_t>(c.send_dest_ranks);
        uniquified += c.uniquify_vertices;
      }
    }
    EXPECT_EQ(r.metrics.exchange_remote_bytes, gold.remote_bytes);
    EXPECT_EQ(r.metrics.exchange_local_bytes, gold.local_bytes);
    EXPECT_EQ(send_dest_ranks, gold.send_dest_ranks);
    EXPECT_EQ(uniquified, gold.uniquified);
    EXPECT_NEAR(r.metrics.modeled_ms, gold.modeled_ms,
                1e-12 * gold.modeled_ms);
  }
}

/// Run-summed per-kernel work: {dd, dn, nd, nn} edges, vertices and the
/// number of (iteration, GPU) launches that pulled.
struct KernelTotals {
  std::uint64_t edges[4] = {};
  std::uint64_t vertices[4] = {};
  std::uint64_t backward[4] = {};
};

KernelTotals kernel_totals(const sim::RunCounters& counters) {
  KernelTotals t;
  for (const auto& ic : counters.iterations) {
    for (const auto& gc : ic.gpu) {
      const sim::KernelCounters* kernels[4] = {&gc.dd, &gc.dn, &gc.nd, &gc.nn};
      for (int i = 0; i < 4; ++i) {
        t.edges[i] += kernels[i]->edges;
        t.vertices[i] += kernels[i]->vertices;
        t.backward[i] += kernels[i]->backward ? 1 : 0;
      }
    }
  }
  return t;
}

template <typename T>
std::uint64_t digest(const std::vector<T>& values) {
  std::uint64_t h = values.size();
  for (const T v : values) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

TEST(BfsGolden, CountersAndModeledTimeArePinned) {
  // RMAT-12 on 2x2 at TH 32: the default hybrid, forced push and hybrid
  // with parents.  How the kernels route, order and mark their work may
  // change; the traversal they perform, the bytes they move and the time
  // the model charges for it may not.
  struct Golden {
    const char* name;
    bool direction_optimized, parents;
    int iterations;
    std::uint64_t edges[4], vertices[4], backward[4];  // dd, dn, nd, nn
    std::uint64_t remote_bytes, mask_bytes;
    std::uint64_t distance_digest, parent_digest;
    double modeled_ms;
  };
  const Golden goldens[] = {
      {"hybrid", true, false, 6,
       {6384, 2858, 7384, 2172}, {137, 1779, 1453, 2556}, {16, 16, 19, 0},
       4424, 1188, 0x893c40b21137e6adULL, 0x0000000000000000ULL,
       0.3792468134354901},
      {"push", false, false, 6,
       {97164, 15867, 15867, 2172}, {2986, 2986, 2556, 2556}, {0, 0, 0, 0},
       4424, 1188, 0x893c40b21137e6adULL, 0x0000000000000000ULL,
       0.30707070052007474},
      {"hybrid_parents", true, true, 6,
       {6384, 2858, 7384, 2172}, {137, 1779, 1453, 2556}, {16, 16, 19, 0},
       4424, 1188, 0x893c40b21137e6adULL, 0x3f289557c1071d51ULL,
       0.3792468134354901},
  };
  const graph::EdgeList g = graph::rmat_graph500({.scale = 12, .seed = 19});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 32);
  for (const Golden& gold : goldens) {
    SCOPED_TRACE(gold.name);
    BfsOptions options;
    options.direction_optimized = gold.direction_optimized;
    options.compute_parents = gold.parents;
    DistributedBfs bfs(dg, cluster, options);
    const BfsResult r = bfs.run(bfs.sample_source(3));
    const RunMetrics& m = r.metrics;
    const KernelTotals k = kernel_totals(m.counters);
    EXPECT_EQ(m.iterations, gold.iterations);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(k.edges[i], gold.edges[i]) << "kernel " << i;
      EXPECT_EQ(k.vertices[i], gold.vertices[i]) << "kernel " << i;
      EXPECT_EQ(k.backward[i], gold.backward[i]) << "kernel " << i;
    }
    EXPECT_EQ(m.exchange_remote_bytes, gold.remote_bytes);
    EXPECT_EQ(m.mask_reduce_bytes, gold.mask_bytes);
    EXPECT_EQ(digest(r.distances), gold.distance_digest);
    EXPECT_EQ(digest(r.parents), gold.parent_digest);
    EXPECT_NEAR(m.modeled_ms, gold.modeled_ms, 1e-12 * gold.modeled_ms);
  }
}

/// Checks the normal previsit's output against the inputs it consumed:
/// the frontier is the ascending, duplicate-free union of `local` (already
/// claimed at `s.depth`) and the unseen `arrivals`; the visited mask is
/// exactly {v : level <= depth}; the frontier bitmap is clean again.
void expect_previsit_output(const GpuState& s,
                            const std::vector<LocalId>& local,
                            const std::vector<LocalId>& arrivals,
                            const std::set<LocalId>& seen_before) {
  std::set<LocalId> expected(local.begin(), local.end());
  for (const LocalId v : arrivals) {
    if (seen_before.count(v) == 0) expected.insert(v);
  }
  EXPECT_TRUE(std::adjacent_find(s.frontier.begin(), s.frontier.end(),
                                 std::greater_equal<LocalId>()) ==
              s.frontier.end())
      << "frontier not strictly ascending";
  EXPECT_EQ(std::set<LocalId>(s.frontier.begin(), s.frontier.end()),
            expected);
  EXPECT_EQ(s.frontier.size(), expected.size());
  for (const LocalId v : expected) {
    EXPECT_EQ(s.level_normal[v], s.depth) << "vertex " << v;
  }
  std::uint64_t mismatches = 0;
  for (std::size_t v = 0; v < s.level_normal.size(); ++v) {
    const Depth level = s.level_normal[v];
    const bool visited = level != kUnvisited && level <= s.depth;
    if (s.seen_normal.test(v) != visited && ++mismatches <= 5) {
      ADD_FAILURE() << "seen_normal disagrees with level at " << v;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(s.frontier_normal.none());
  EXPECT_TRUE(s.frontier_words.empty());
  EXPECT_TRUE(s.next_local.empty());
  EXPECT_TRUE(s.received.empty());
}

/// One previsit at the state's current depth: `local` plays the dn
/// visit's claims (level already set), `arrivals` the exchange's ids.
void run_previsit(GpuState& s, const std::vector<LocalId>& local,
                  const std::vector<LocalId>& arrivals) {
  std::set<LocalId> seen_before;
  for (std::size_t v = 0; v < s.level_normal.size(); ++v) {
    if (s.seen_normal.test(v)) seen_before.insert(static_cast<LocalId>(v));
  }
  for (const LocalId v : local) s.level_normal[v] = s.depth;
  s.next_local = local;
  s.received = arrivals;
  s.begin_iteration();
  normal_previsit(s, BfsOptions{});
  expect_previsit_output(s, local, arrivals, seen_before);
}

TEST(NormalPrevisit, FrontierIsAscendingAndSeenIsExactlyTheVisitedLevels) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 12, .seed = 23});
  const auto spec = spec_of(2, 1);
  const graph::DistributedGraph dg = build_distributed(g, spec, 32);
  const graph::LocalGraph& lg = dg.local(1);
  const auto n_local = static_cast<LocalId>(lg.num_local_normals());
  GpuState s(lg, spec.total_gpus(), /*record_parents=*/false);

  // Three rounds of shuffled claims and duplicate-laden arrivals; arrivals
  // repeat claimed, earlier-visited and each other's ids.
  std::mt19937 rng(7);
  std::vector<LocalId> order(n_local);
  for (LocalId v = 0; v < n_local; ++v) order[v] = v;
  std::shuffle(order.begin(), order.end(), rng);
  std::size_t next = 0;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    std::vector<LocalId> local(order.begin() + next,
                               order.begin() + next + 200);
    next += 200;
    std::vector<LocalId> arrivals(order.begin() + next,
                                  order.begin() + next + 300);
    next += 300;
    for (int i = 0; i < 200; ++i) {
      arrivals.push_back(order[rng() % next]);  // claimed or already seen
    }
    std::shuffle(arrivals.begin(), arrivals.end(), rng);
    run_previsit(s, local, arrivals);
    s.depth += 1;
  }
}

TEST(NormalPrevisit, SparseFrontierOnALargeGraph) {
  // A long path on one GPU: a handful of far-apart vertices, each arriving
  // more than once, extracted in order without disturbing the rest.
  const auto spec = spec_of(1, 1);
  const graph::DistributedGraph dg =
      build_distributed(graph::path_graph(1 << 20), spec, 8);
  const graph::LocalGraph& lg = dg.local(0);
  GpuState s(lg, spec.total_gpus(), /*record_parents=*/false);
  const auto last = static_cast<LocalId>(lg.num_local_normals() - 1);
  run_previsit(s, {last}, {});
  s.depth += 1;
  run_previsit(s, {700000, 3}, {last, 524287, 64, 524287, 3, 65});
  s.depth += 1;
  run_previsit(s, {}, {0, 1 << 19, 64, 1 << 19});
  EXPECT_EQ(s.frontier, (std::vector<LocalId>{0, 1 << 19}));
}

TEST(NormalPrevisit, ParentStorageOnlyWhenRecordingParents) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 11, .seed = 29});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  ASSERT_GT(dg.num_delegates(), 0u);

  const GpuState lean(dg.local(0), spec.total_gpus(), false);
  EXPECT_TRUE(lean.parent_normal.empty());
  EXPECT_TRUE(lean.parent_delegate_dd.empty());
  EXPECT_TRUE(lean.parent_delegate_nd.empty());
  const GpuState full(dg.local(0), spec.total_gpus(), true);
  EXPECT_EQ(full.parent_normal.size(), dg.local(0).num_local_normals());
  EXPECT_EQ(full.parent_delegate_dd.size(), dg.num_delegates());
  EXPECT_EQ(full.parent_delegate_nd.size(), dg.num_delegates());

  // Parents on or off, the traversal is the same: distances and every
  // counter the model replays.
  std::vector<BfsResult> runs;
  for (const bool parents : {false, true}) {
    BfsOptions options;
    options.compute_parents = parents;
    DistributedBfs bfs(dg, cluster, options);
    runs.push_back(bfs.run(bfs.sample_source(2)));
  }
  const RunMetrics& off = runs[0].metrics;
  const RunMetrics& on = runs[1].metrics;
  EXPECT_TRUE(runs[0].parents.empty());
  EXPECT_EQ(runs[1].parents.size(), dg.num_vertices());
  EXPECT_EQ(runs[0].distances, runs[1].distances);
  EXPECT_EQ(off.iterations, on.iterations);
  EXPECT_EQ(off.delegate_reduce_iterations, on.delegate_reduce_iterations);
  const KernelTotals k_off = kernel_totals(off.counters);
  const KernelTotals k_on = kernel_totals(on.counters);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(k_off.edges[i], k_on.edges[i]) << "kernel " << i;
    EXPECT_EQ(k_off.vertices[i], k_on.vertices[i]) << "kernel " << i;
    EXPECT_EQ(k_off.backward[i], k_on.backward[i]) << "kernel " << i;
  }
  EXPECT_EQ(off.exchange_remote_bytes, on.exchange_remote_bytes);
  EXPECT_EQ(off.exchange_local_bytes, on.exchange_local_bytes);
  EXPECT_EQ(off.mask_reduce_bytes, on.mask_reduce_bytes);
  EXPECT_EQ(off.modeled_ms, on.modeled_ms);
}

}  // namespace
}  // namespace dsbfs::core
