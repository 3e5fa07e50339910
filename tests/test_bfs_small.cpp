#include "core/bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "baseline/serial_bfs.hpp"
#include "bfs_golden.hpp"
#include "core/frontier.hpp"
#include "core/previsit.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

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
  // instead of two.  Pinned so that a build which ignores L (216 local
  // bytes, 48 send ranks) fails here.
  //
  // The `*_bytes_before` columns hold the byte pins from before the nn
  // visit shipped each target once per sender (uniquified was then 0 / 94
  // and modeled 0.34363582622103322 / 0.35064416644362656 ms): that filter
  // may only remove bytes.  `modeled_ms_before` is the pin from before the
  // BFS ran on the lane engine, whose previsits fuse the direction
  // estimates into their queue scans (direction_decisions_fused): the
  // model may only charge less for the same traversal.
  // `modeled_ms_before_cap` is the pin from before the early-exit pull
  // estimate was capped at its candidates' edge mass and the direction
  // factors became the device model's rate ratios: the model may only
  // charge less, and the bytes did not move.
  struct Golden {
    bool uniquify;
    std::uint64_t remote_bytes, local_bytes, send_dest_ranks, uniquified;
    double modeled_ms;
    std::uint64_t remote_bytes_before, local_bytes_before;
    double modeled_ms_before, modeled_ms_before_cap;
  };
  const Golden goldens[] = {
      {false, 360, 404, 24, 0, 0.26176162836490247, 376, 432,
       0.34362461077781303, 0.26211252836490251},
      {true, 340, 404, 24, 90, 0.26877075089845853, 344, 432,
       0.35063373331136899, 0.26912165089845852},
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
    EXPECT_LE(gold.remote_bytes, gold.remote_bytes_before);
    EXPECT_LE(gold.local_bytes, gold.local_bytes_before);
    EXPECT_LE(gold.modeled_ms, gold.modeled_ms_before);
    EXPECT_LE(gold.modeled_ms, gold.modeled_ms_before_cap);
    EXPECT_EQ(r.metrics.exchange_remote_bytes, gold.remote_bytes);
    EXPECT_EQ(r.metrics.exchange_local_bytes, gold.local_bytes);
    EXPECT_EQ(send_dest_ranks, gold.send_dest_ranks);
    EXPECT_EQ(uniquified, gold.uniquified);
    EXPECT_NEAR(r.metrics.modeled_ms, gold.modeled_ms,
                1e-12 * gold.modeled_ms);
  }
}

TEST(BfsSmall, EachSenderShipsEachNnTargetOnce) {
  // The nn visit bins a target only the first time its GPU reaches it, so
  // a GPU's run-summed binned vertices stay within the normal-vertex count
  // however many of its nn edges share a target, under every topology.  A
  // low-skew graph with a high threshold makes nearly every edge nn.
  const graph::EdgeList g = graph::rmat_graph500(
      {.scale = 10, .edge_factor = 16, .a = 0.45, .b = 0.22, .c = 0.22,
       .seed = 23});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 64);
  const std::uint64_t normals = dg.num_vertices() - dg.num_delegates();
  const graph::Csr csr = graph::build_host_csr(g);
  for (const sim::ExchangeTopology topology :
       {sim::ExchangeTopology::kFlat, sim::ExchangeTopology::kHierarchical,
        sim::ExchangeTopology::kButterfly}) {
    SCOPED_TRACE(static_cast<int>(topology));
    BfsOptions options;
    options.run.exchange_topology = topology;
    DistributedBfs bfs(dg, cluster, options);
    const VertexId source = bfs.sample_source(2);
    const BfsResult r = bfs.run(source);
    EXPECT_EQ(r.distances, baseline::serial_bfs(csr, source));
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
}

using golden::kernel_totals;
using golden::KernelTotals;

TEST(BfsGolden, CountersAndModeledTimeArePinned) {
  // The pins and their history live in bfs_golden.hpp.
  golden::BfsGoldenSetup setup;
  for (const golden::BfsGolden& gold : golden::kBfsGoldens) {
    SCOPED_TRACE(gold.name);
    BfsOptions options;
    options.direction_optimized = gold.direction_optimized;
    options.compute_parents = gold.parents;
    DistributedBfs bfs(setup.dg, setup.cluster, options);
    const VertexId source =
        bfs.sample_source(golden::BfsGoldenSetup::kSourceIndex);
    const BfsResult r = bfs.run(source);
    golden::expect_bfs_golden(gold, r.distances, r.parents, r.metrics);
    EXPECT_EQ(r.distances, baseline::serial_bfs(
                               graph::build_host_csr(setup.edges), source));
  }
}

TEST(BfsGolden, CheckpointBytesArePinned) {
  // The pinned runs with a checkpoint every 2 iterations.  The lane state
  // charges its three normal-side lane masks (visited, frontier, next) as
  // device state, which the single-source state before the lane engine
  // left out, so `bytes_n_sent` (and each checkpoint) copies three
  // visited-mask sizes more than `bytes_before`.  `bytes_n_sent` and
  // `modeled_ms_n_sent` are the pins from before the nn `sent` mask was
  // indexed by ghost id instead of global vertex id: each checkpoint now
  // copies the smaller mask, and only the checkpoint charge may move.
  // `modeled_ms_before_cap` is the pin from before the early-exit pull
  // estimate was capped at its candidates' edge mass: its pools are host
  // scalars, so the checkpoint bytes did not move, and the hybrid run's
  // modeled time fell by exactly the uncheckpointed hybrid pin's drop.
  struct Pin {
    bool direction_optimized;
    int checkpoints;
    std::uint64_t bytes, bytes_before, bytes_n_sent;
    double modeled_ms, modeled_ms_n_sent, modeled_ms_before_cap;
  };
  const Pin pins[] = {
      {true, 12, 96072, 96816, 101424, 0.29832080095324326,
       0.30028133992987111, 0.30026673192987108},
      {false, 12, 96072, 96816, 101424, 0.30959838895324321,
       0.30961308495324324, 0.30959838895324321},
  };
  golden::BfsGoldenSetup setup;
  const int p = setup.spec.total_gpus();
  std::uint64_t masks_per_round = 0;  // three visited masks on every GPU
  std::uint64_t sent_shrink_per_round = 0;  // n-bit minus ghost-bit masks
  for (int g = 0; g < p; ++g) {
    const graph::LocalGraph& lg = setup.dg.local(g);
    masks_per_round +=
        3 * util::LaneBitset(lg.num_local_normals()).byte_size();
    sent_shrink_per_round +=
        util::LaneBitset(lg.num_global_vertices()).byte_size() -
        util::LaneBitset(lg.ghosts().slots()).byte_size();
  }
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.direction_optimized ? "hybrid" : "push");
    BfsOptions options;
    options.direction_optimized = pin.direction_optimized;
    options.run.resilience.checkpoint_interval = 2;
    DistributedBfs bfs(setup.dg, setup.cluster, options);
    const BfsResult r =
        bfs.run(bfs.sample_source(golden::BfsGoldenSetup::kSourceIndex));
    const sim::FaultReport& f = r.metrics.fault;
    EXPECT_EQ(f.checkpoints, pin.checkpoints);
    EXPECT_EQ(f.checkpoint_bytes, pin.bytes);
    const auto rounds = static_cast<std::uint64_t>(pin.checkpoints / p);
    EXPECT_EQ(pin.bytes_n_sent - pin.bytes_before, rounds * masks_per_round);
    EXPECT_LE(pin.bytes, pin.bytes_n_sent);
    EXPECT_EQ(pin.bytes_n_sent - pin.bytes, rounds * sent_shrink_per_round);
    EXPECT_LE(pin.modeled_ms, pin.modeled_ms_n_sent);
    EXPECT_LE(pin.modeled_ms, pin.modeled_ms_before_cap);
    EXPECT_NEAR(r.metrics.modeled_ms, pin.modeled_ms, 1e-12 * pin.modeled_ms);
  }
}

/// Drives the one-lane (single-source) normal previsit and checks its
/// output against a level array kept on the side: the frontier is the
/// ascending, duplicate-free union of the dn claims and the unseen
/// arrivals, stamped at the current depth; the visited mask is exactly
/// {v : level <= depth}; the frontier bitmap and the inputs are clean
/// again.
class PrevisitCheck {
 public:
  PrevisitCheck(const graph::LocalGraph& lg, int total_gpus)
      : s(lg, total_gpus, /*lane_bits=*/1, /*record_parents=*/false),
        level(lg.num_local_normals(), kUnvisited) {}

  /// One previsit at the state's current depth: `local` plays the dn
  /// visit's claims (distinct, unvisited), `arrivals` the exchange's ids.
  void run(const std::vector<LocalId>& local,
           const std::vector<LocalId>& arrivals) {
    std::set<LocalId> expected;
    for (const LocalId v : local) {
      s.next_normal.or_lanes(v, 1);
      expected.insert(v);
    }
    for (const LocalId v : arrivals) {
      if (level[v] == kUnvisited) expected.insert(v);
    }
    for (const LocalId v : expected) level[v] = s.depth;
    s.next_local = local;
    s.id_received = arrivals;
    s.begin_iteration();
    normal_previsit_lanes<1>(s);

    EXPECT_TRUE(std::adjacent_find(s.frontier.begin(), s.frontier.end(),
                                   std::greater_equal<LocalId>()) ==
                s.frontier.end())
        << "frontier not strictly ascending";
    EXPECT_EQ(std::set<LocalId>(s.frontier.begin(), s.frontier.end()),
              expected);
    EXPECT_EQ(s.frontier.size(), expected.size());
    std::uint64_t mismatches = 0;
    for (std::size_t v = 0; v < level.size(); ++v) {
      const bool visited = level[v] != kUnvisited;
      if (s.seen_normal.test(v) != visited && ++mismatches <= 5) {
        ADD_FAILURE() << "seen_normal disagrees with level at " << v;
      }
      if (visited && s.lane_depth(v, 0) != level[v] && ++mismatches <= 5) {
        ADD_FAILURE() << "depth planes disagree with level at " << v;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_TRUE(s.frontier_normal.none());
    EXPECT_TRUE(s.frontier_words.empty());
    EXPECT_TRUE(s.next_normal.none());
    EXPECT_TRUE(s.next_local.empty());
    EXPECT_TRUE(s.id_received.empty());
  }

  LaneState s;
  std::vector<Depth> level;
};

TEST(NormalPrevisit, FrontierIsAscendingAndSeenIsExactlyTheVisitedLevels) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 12, .seed = 23});
  const auto spec = spec_of(2, 1);
  const graph::DistributedGraph dg = build_distributed(g, spec, 32);
  const graph::LocalGraph& lg = dg.local(1);
  const auto n_local = static_cast<LocalId>(lg.num_local_normals());
  PrevisitCheck check(lg, spec.total_gpus());

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
    check.run(local, arrivals);
    check.s.depth += 1;
  }
}

TEST(NormalPrevisit, SparseFrontierOnALargeGraph) {
  // A long path on one GPU: a handful of far-apart vertices, each arriving
  // more than once, extracted in order without disturbing the rest.
  const auto spec = spec_of(1, 1);
  const graph::DistributedGraph dg =
      build_distributed(graph::path_graph(1 << 20), spec, 8);
  const graph::LocalGraph& lg = dg.local(0);
  PrevisitCheck check(lg, spec.total_gpus());
  const auto last = static_cast<LocalId>(lg.num_local_normals() - 1);
  check.run({last}, {});
  check.s.depth += 1;
  check.run({700000, 3}, {last, 524287, 64, 524287, 3, 65});
  check.s.depth += 1;
  check.run({}, {0, 1 << 19, 64, 1 << 19});
  EXPECT_EQ(check.s.frontier, (std::vector<LocalId>{0, 1 << 19}));
}

TEST(NormalPrevisit, ParentStorageOnlyWhenRecordingParents) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 11, .seed = 29});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  ASSERT_GT(dg.num_delegates(), 0u);

  const LaneState lean(dg.local(0), spec.total_gpus(), 1, false);
  EXPECT_TRUE(lean.parent_normal.empty());
  EXPECT_TRUE(lean.parent_delegate_dd.empty());
  EXPECT_TRUE(lean.parent_delegate_nd.empty());
  const LaneState full(dg.local(0), spec.total_gpus(), 1, true);
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
