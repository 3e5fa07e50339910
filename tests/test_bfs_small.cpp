#include "core/bfs.hpp"

#include <gtest/gtest.h>

#include "baseline/serial_bfs.hpp"
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
    options.uniquify = gold.uniquify;
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

}  // namespace
}  // namespace dsbfs::core
