#include <gtest/gtest.h>

#include "baseline/bfs_1d.hpp"
#include "baseline/dobfs_single.hpp"
#include "baseline/serial_bfs.hpp"
#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/partition_stats.hpp"
#include "graph/rmat.hpp"

/// Cross-module integration tests at moderate scale: the full pipeline
/// (generate -> partition -> traverse -> validate -> model) with relations
/// between modules checked end to end.
namespace dsbfs {
namespace {

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

class IntegrationFixture : public ::testing::Test {
 protected:
  static constexpr int kScale = 13;
  void SetUp() override {
    graph_ = graph::rmat_graph500({.scale = kScale, .seed = 101});
    spec_ = spec_of(2, 2);
    dg_ = graph::build_distributed(graph_, spec_, 32);
  }
  graph::EdgeList graph_;
  sim::ClusterSpec spec_;
  graph::DistributedGraph dg_;
};

TEST_F(IntegrationFixture, FullPipelineAllOptionsValidate) {
  sim::Cluster cluster(spec_);
  core::BfsOptions options;
  options.direction_optimized = true;
  options.local_all2all = true;
  options.run.uniquify = true;
  core::DistributedBfs bfs(dg_, cluster, options);
  const VertexId source = bfs.sample_source(3);
  const core::BfsResult r = bfs.run(source);

  const auto report = core::validate_distances(graph_, source, r.distances);
  ASSERT_TRUE(report.ok) << report.error;
  // Scale-13 RMAT reaches a large connected core.
  EXPECT_GT(report.reached, graph_.num_vertices / 4);

  const auto expected =
      baseline::serial_bfs(graph::build_host_csr(graph_), source);
  EXPECT_TRUE(core::validate_against_reference(r.distances, expected).ok);
}

TEST_F(IntegrationFixture, ExchangeVolumeBoundedByEnnFormula) {
  // Section V-B: total normal-exchange volume is at most 4 * |Enn| bytes
  // per BFS (each nn edge crosses at most once; duplicates at the receiver
  // come from multi-edges, already counted in Enn).
  sim::Cluster cluster(spec_);
  core::DistributedBfs bfs(dg_, cluster);
  const auto r = bfs.run(bfs.sample_source(1));
  EXPECT_LE(r.metrics.exchange_remote_bytes, 4 * dg_.enn());
  EXPECT_GT(r.metrics.exchange_remote_bytes, 0u);
}

TEST_F(IntegrationFixture, DistributedWorkloadTracksSingleNodeDobfs) {
  // The distributed DOBFS workload m' should be within a small factor of
  // the single-node DOBFS workload (paper Section IV-B: bounded by
  // m' + d*p*b).
  const auto csr = graph::build_host_csr(graph_);
  sim::Cluster cluster(spec_);
  core::DistributedBfs bfs(dg_, cluster);
  const VertexId source = bfs.sample_source(2);
  const auto distributed = bfs.run(source);
  const auto single = baseline::dobfs_single(csr, source);
  EXPECT_EQ(distributed.distances, single.distances);
  EXPECT_LT(distributed.metrics.edges_traversed,
            6 * single.edges_examined + 6 * graph_.num_vertices);
}

TEST_F(IntegrationFixture, AgreesWithBaseline1d) {
  sim::Cluster cluster(spec_);
  core::DistributedBfs bfs(dg_, cluster);
  const VertexId source = bfs.sample_source(4);
  const auto ours = bfs.run(source);
  const auto theirs = baseline::bfs_1d(graph_, spec_, source);
  EXPECT_EQ(ours.distances, theirs.distances);
}

TEST_F(IntegrationFixture, MemoryFitsSimulatedDevices) {
  // Register graph + BFS state on enforcing devices with ample budget; a
  // bookkeeping bug (double count / leak) would trip the checker.
  sim::DeviceMemoryConfig mem;
  mem.capacity_bytes = 2ULL << 30;
  mem.enforce = true;
  sim::Cluster cluster(spec_, mem);
  const auto dg = graph::build_distributed(graph_, spec_, 32, &cluster);
  core::DistributedBfs bfs(dg, cluster);
  EXPECT_NO_THROW(bfs.run(bfs.sample_source(0)));
  for (int g = 0; g < spec_.total_gpus(); ++g) {
    EXPECT_FALSE(cluster.device(g).over_capacity());
    // BFS state released after the run; graph remains.
    EXPECT_EQ(cluster.device(g).allocated_bytes(),
              dg.local(g).memory_usage().total_bytes());
  }
}

TEST_F(IntegrationFixture, SuggestedThresholdWorksEndToEnd) {
  const graph::PartitionStatsSweeper sweeper(graph_);
  const std::uint32_t th =
      graph::suggest_threshold(sweeper, spec_.total_gpus());
  EXPECT_GT(th, 0u);
  const auto dg = graph::build_distributed(graph_, spec_, th);
  // The policy bounds hold on the built graph.
  EXPECT_LE(static_cast<double>(dg.num_delegates()),
            4.0 * static_cast<double>(graph_.num_vertices) /
                spec_.total_gpus());
  sim::Cluster cluster(spec_);
  core::DistributedBfs bfs(dg, cluster);
  const auto r = bfs.run(bfs.sample_source(5));
  EXPECT_GT(r.metrics.iterations, 1);
}

TEST(Integration, WeakScalingModeledThroughputGrows) {
  // Mini weak-scaling study (the Fig. 9 mechanism): aggregate modeled GTEPS
  // must grow as graph and cluster grow together.  Tiny graphs understate
  // the effect (per-iteration overheads dominate, as on real GPUs), so the
  // growth bound here is conservative; the Fig. 9 bench runs the real curve.
  const auto run_at = [](int scale, int ranks, int gpus) {
    const auto g = graph::rmat_graph500({.scale = scale, .seed = 103});
    const auto spec = spec_of(ranks, gpus);
    const auto dg = graph::build_distributed(g, spec, 32);
    sim::Cluster cluster(spec);
    core::DistributedBfs bfs(dg, cluster);
    return bfs.run(bfs.sample_source(1)).metrics.modeled_gteps;
  };
  const double p1 = run_at(16, 1, 1);
  const double p4 = run_at(18, 2, 2);
  EXPECT_GT(p4, p1 * 1.5) << "p1=" << p1 << " p4=" << p4;
}

TEST(Integration, LongTailGraphDobfsNoWorseIterations) {
  // Section VI-D: on long-tail graphs DOBFS's direction decisions add
  // overhead without workload savings; both variants must stay correct and
  // iterate the full chain.
  graph::WebGraphLikeParams p;
  p.chain_length = 64;
  p.community_size = 64;
  const auto g = graph::webgraph_like(p);
  const auto spec = spec_of(2, 2);
  const auto dg = graph::build_distributed(g, spec, 16);
  sim::Cluster cluster(spec);

  core::BfsOptions plain;
  plain.direction_optimized = false;
  core::BfsOptions dopt;
  core::DistributedBfs bfs_plain(dg, cluster, plain);
  core::DistributedBfs bfs_do(dg, cluster, dopt);
  const auto r_plain = bfs_plain.run(0);
  const auto r_do = bfs_do.run(0);
  EXPECT_EQ(r_plain.distances, r_do.distances);
  EXPECT_GT(r_plain.metrics.iterations, 60);
}

TEST(Integration, FriendsterLikeEndToEnd) {
  const auto g = graph::friendster_like({.scale = 13, .seed = 7});
  const auto spec = spec_of(2, 2);
  const auto dg = graph::build_distributed(g, spec, 16);
  sim::Cluster cluster(spec);
  core::DistributedBfs bfs(dg, cluster);
  const VertexId source = bfs.sample_source(0);
  const auto r = bfs.run(source);
  const auto report = core::validate_distances(g, source, r.distances);
  EXPECT_TRUE(report.ok) << report.error;
}

}  // namespace
}  // namespace dsbfs
