#include "core/delta_sssp.hpp"

#include <gtest/gtest.h>

#include <span>

#include "baseline/host_apps.hpp"
#include "core/sssp.hpp"
#include "graph/csr.hpp"
#include "graph/degree.hpp"
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

/// RMAT label randomization leaves isolated vertices scattered across the
/// id space; counter/byte assertions need a source that actually traverses.
VertexId first_connected_source(const graph::EdgeList& g) {
  const auto degrees = graph::out_degrees(g);
  VertexId source = 0;
  while (source < g.num_vertices && degrees[source] == 0) ++source;
  return source;
}

DeltaSsspResult run_delta(const graph::EdgeList& g, sim::ClusterSpec spec,
                          std::uint32_t th, VertexId source,
                          DeltaSsspOptions options = {}) {
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
  DistributedDeltaSssp sssp(dg, cluster, options);
  return sssp.run(source);
}

TEST(DeltaSssp, MatchesSerialOraclesOnNamedGraphs) {
  for (const std::uint64_t delta : {std::uint64_t{1}, std::uint64_t{4},
                                    std::uint64_t{9}, kInfiniteDistance}) {
    for (const auto& [g, source] :
         {std::pair{graph::star_graph(40), VertexId{1}},
          std::pair{graph::path_graph(30), VertexId{0}},
          std::pair{graph::grid_graph(6, 5), VertexId{7}},
          std::pair{graph::cycle_graph(24), VertexId{5}}}) {
      const graph::HostCsr host = graph::build_host_csr(g);
      baseline::SerialDeltaStats stats;
      const auto oracle =
          baseline::serial_delta_sssp(host, source, delta, 15, &stats);
      // The oracle itself must agree with plain Bellman-Ford.
      ASSERT_EQ(oracle, baseline::serial_sssp(host, source));

      const DeltaSsspResult r =
          run_delta(g, spec_of(2, 2), 4, source, {.delta = delta});
      ASSERT_EQ(r.distances, oracle) << "delta " << delta;
      EXPECT_EQ(r.buckets_processed, stats.buckets_processed)
          << "delta " << delta;
    }
  }
}

TEST(DeltaSssp, DelegateSourceMatchesSerial) {
  // Threshold 0 makes every vertex with an edge a delegate, so the source
  // is seeded through the replicated delegate-bucket path on every GPU.
  const graph::EdgeList g = graph::star_graph(20);
  const auto oracle =
      baseline::serial_delta_sssp(graph::build_host_csr(g), 0, 4);
  const DeltaSsspResult r = run_delta(g, spec_of(2, 2), 0, 0, {.delta = 4});
  ASSERT_EQ(r.distances, oracle);
}

struct DeltaCase {
  const char* name;
  int ranks, gpus;
  std::uint32_t th;
  std::uint64_t delta;
};

class DeltaSweep : public ::testing::TestWithParam<DeltaCase> {};

TEST_P(DeltaSweep, RmatHashedWeightsMatchSerialDeltaAndBellmanFord) {
  const DeltaCase c = GetParam();
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 77});
  const auto spec = spec_of(c.ranks, c.gpus);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, c.th);
  DistributedDeltaSssp sssp(dg, cluster, {.delta = c.delta});
  const graph::HostCsr host = graph::build_host_csr(g);
  for (const VertexId source : {VertexId{1}, VertexId{42}}) {
    baseline::SerialDeltaStats stats;
    const auto oracle =
        baseline::serial_delta_sssp(host, source, c.delta, 15, &stats);
    const DeltaSsspResult r = sssp.run(source);
    ASSERT_EQ(r.distances.size(), oracle.size());
    for (VertexId v = 0; v < oracle.size(); ++v) {
      ASSERT_EQ(r.distances[v], oracle[v])
          << "vertex " << v << " source " << source << " case " << c.name;
    }
    EXPECT_EQ(r.buckets_processed, stats.buckets_processed) << c.name;
    EXPECT_GT(r.iterations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeltaSweep,
    ::testing::Values(DeltaCase{"single", 1, 1, 16, 8},
                      DeltaCase{"quad", 2, 2, 16, 8},
                      DeltaCase{"wide", 4, 2, 32, 3},
                      DeltaCase{"all_delegates", 2, 1, 0, 8},
                      DeltaCase{"no_delegates", 2, 2, 1u << 20, 8},
                      DeltaCase{"unit_delta", 2, 2, 16, 1}),
    [](const auto& info) { return info.param.name; });

TEST(DeltaSssp, StoredWeightsMatchSerialOracles) {
  graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 32});
  graph::assign_uniform_weights(g, 24, 13);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  ASSERT_TRUE(dg.weighted());
  const graph::WeightedHostCsr host = graph::build_weighted_host_csr(g);
  const std::span<const std::uint32_t> weights(host.weights);

  baseline::SerialDeltaStats stats;
  const auto oracle =
      baseline::serial_delta_sssp(host.csr, weights, 1, 6, &stats);
  ASSERT_EQ(oracle, baseline::serial_sssp(host.csr, weights, 1));

  const DeltaSsspResult r =
      DistributedDeltaSssp(dg, cluster, {.delta = 6}).run(1);
  ASSERT_EQ(r.distances, oracle);
  EXPECT_EQ(r.buckets_processed, stats.buckets_processed);
  // Weights reach 24 against delta 6, so real heavy rounds must happen.
  EXPECT_GT(r.heavy_relaxations, 0u);
  EXPECT_GT(r.light_relaxations, 0u);
}

TEST(DeltaSssp, StoredWeightsMatchSerialOnWeightedGrid) {
  for (const std::uint32_t th : {std::uint32_t{0}, std::uint32_t{4}}) {
    graph::EdgeList g = graph::grid_graph(7, 5);
    graph::assign_uniform_weights(g, 100, 3);
    const auto spec = spec_of(2, 2);
    sim::Cluster cluster(spec);
    const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
    const graph::WeightedHostCsr host = graph::build_weighted_host_csr(g);
    const auto oracle = baseline::serial_delta_sssp(
        host.csr, std::span<const std::uint32_t>(host.weights), 0, 16);
    const DeltaSsspResult r =
        DistributedDeltaSssp(dg, cluster, {.delta = 16}).run(0);
    ASSERT_EQ(r.distances, oracle) << "threshold " << th;
  }
}

TEST(DeltaSssp, AgreesWithBellmanFordCoreSssp) {
  // Same weighted graph, both distributed algorithms: distances must be
  // bit-identical (they are the unique shortest paths).
  graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 55});
  graph::assign_uniform_weights(g, 20, 9);
  const VertexId source = first_connected_source(g);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const SsspResult bf = DistributedSssp(dg, cluster).run(source);
  const DeltaSsspResult ds =
      DistributedDeltaSssp(dg, cluster, {.delta = 5}).run(source);
  ASSERT_EQ(ds.distances, bf.distances);
  EXPECT_GT(ds.buckets_processed, 1u);
}

TEST(DeltaSssp, InfiniteDeltaReducesToBellmanFord) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 31});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);

  const DeltaSsspResult r =
      DistributedDeltaSssp(dg, cluster, {.delta = kInfiniteDistance}).run(1);
  // One bucket, no heavy edges: the degenerate delta is exactly the
  // Bellman-Ford round structure of core::sssp.
  EXPECT_EQ(r.buckets_processed, 1u);
  EXPECT_EQ(r.heavy_relaxations, 0u);
  EXPECT_EQ(r.heavy_iterations, 1);  // the (empty) closing heavy round
  const SsspResult bf = DistributedSssp(dg, cluster).run(1);
  ASSERT_EQ(r.distances, bf.distances);
}

TEST(DeltaSssp, BucketCountersTrackRounds) {
  graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 8});
  graph::assign_uniform_weights(g, 30, 4);
  const VertexId source = first_connected_source(g);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const DeltaSsspResult r =
      DistributedDeltaSssp(dg, cluster, {.delta = 4}).run(source);

  EXPECT_GT(r.buckets_processed, 1u);
  // Every bucket runs >= 1 light round and exactly one heavy round, plus
  // the final empty coordination round.
  EXPECT_EQ(static_cast<std::uint64_t>(r.heavy_iterations),
            r.buckets_processed);
  EXPECT_GE(static_cast<std::uint64_t>(r.light_iterations),
            r.buckets_processed);
  // Plus at most one final empty coordination round (it only runs when
  // stale bucket entries survive the last heavy round).
  EXPECT_GE(r.iterations, r.light_iterations + r.heavy_iterations);
  EXPECT_LE(r.iterations, r.light_iterations + r.heavy_iterations + 1);
  EXPECT_GT(r.light_relaxations, 0u);
  EXPECT_GT(r.heavy_relaxations, 0u);
  EXPECT_GT(r.modeled_ms, 0.0);
  EXPECT_GT(r.update_bytes_remote, 0u);
  EXPECT_GT(r.reduce_bytes, 0u);
  // Per-round trace marks the bucket rounds it recorded.
  ASSERT_FALSE(r.counters.iterations.empty());
  EXPECT_TRUE(r.counters.iterations[0].gpu[0].bucket_coordination);
}

TEST(DeltaSssp, ExchangeOptionsAreBitExactAndBiasedWireIsPinned) {
  graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 21});
  graph::assign_uniform_weights(g, 12, 2);
  const VertexId source = first_connected_source(g);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);

  const DeltaSsspOptions plain{.delta = 5, .run = {.uniquify = false}};
  const DeltaSsspResult r0 =
      DistributedDeltaSssp(dg, cluster, plain).run(source);
  EXPECT_EQ(r0.update_bytes_remote, 1152u);
  for (const comm::WireCodec codec :
       {comm::WireCodec::kVarint, comm::WireCodec::kAdaptive,
        comm::WireCodec::kGorilla}) {
    const DeltaSsspOptions tagged{
        .delta = 5, .run = {.uniquify = true, .codec = codec}};
    const DeltaSsspResult r =
        DistributedDeltaSssp(dg, cluster, tagged).run(source);
    ASSERT_EQ(r.distances, r0.distances) << static_cast<int>(codec);
    if (codec == comm::WireCodec::kVarint) {
      // Varint values ride the wire biased by the open bucket's base.
      EXPECT_EQ(r.update_bytes_remote, 204u);
    }
  }
}

/// Every result scalar of one fixed run per exchange variant, pinned: the
/// facade is the W = 1, 64-bit instance of the batched engine, and these
/// values are the ones the dedicated single-source engine produced before
/// it was folded into it.  A change here is a change of the algorithm's
/// rounds, relaxations, wire or model.
TEST(DeltaSssp, GoldenCountersAcrossExchangeVariants) {
  struct Golden {
    const char* name;
    DeltaSsspOptions options;
    std::uint64_t update_bytes_remote;
    double modeled_ms;
  };
  const Golden goldens[] = {
      {"default", {.delta = 5}, 564, 0.83735765028507281},
      {"compress_bucket_bias",
       {.delta = 5,
        .run = {.uniquify = true, .codec = comm::WireCodec::kVarint}},
       94,
       0.84697513230698085},
      {"butterfly",
       {.delta = 5,
        .run = {.uniquify = true,
                .exchange_topology = sim::ExchangeTopology::kButterfly}},
       1068,
       1.2495481243780335},
  };
  const graph::EdgeList g = graph::rmat_graph500({.scale = 8, .seed = 21});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const auto oracle =
      baseline::serial_delta_sssp(graph::build_host_csr(g), 1, 5);
  for (const Golden& gold : goldens) {
    SCOPED_TRACE(gold.name);
    const DeltaSsspResult r =
        DistributedDeltaSssp(dg, cluster, gold.options).run(1);
    ASSERT_EQ(r.distances, oracle);
    EXPECT_EQ(r.iterations, 14);
    EXPECT_EQ(r.buckets_processed, 4u);
    EXPECT_EQ(r.light_iterations, 10);
    EXPECT_EQ(r.heavy_iterations, 4);
    EXPECT_EQ(r.light_relaxations, 2797u);
    EXPECT_EQ(r.heavy_relaxations, 5472u);
    EXPECT_EQ(r.update_bytes_remote, gold.update_bytes_remote);
    EXPECT_EQ(r.reduce_bytes, 41216u);
    // A floating-point sum over the replayed timeline: pinned to rounding.
    EXPECT_NEAR(r.modeled_ms, gold.modeled_ms, 1e-12 * gold.modeled_ms);
  }
}

TEST(DeltaSssp, UnreachableVerticesReportInfinity) {
  graph::EdgeList g;
  g.num_vertices = 8;
  g.add(0, 1);
  g.add(1, 0);
  const DeltaSsspResult r = run_delta(g, spec_of(2, 1), 4, 0, {.delta = 4});
  EXPECT_EQ(r.distances[0], 0u);
  EXPECT_NE(r.distances[1], kInfiniteDistance);
  for (VertexId v = 2; v < 8; ++v) {
    EXPECT_EQ(r.distances[v], kInfiniteDistance) << v;
  }
}

TEST(DeltaSssp, RejectsBadArguments) {
  const graph::EdgeList g = graph::path_graph(8);
  const auto spec = spec_of(2, 1);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  DistributedDeltaSssp sssp(dg, cluster);
  EXPECT_THROW(sssp.run(1000), std::out_of_range);
  EXPECT_THROW(DistributedDeltaSssp(dg, cluster, DeltaSsspOptions{.delta = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      DistributedDeltaSssp(dg, cluster, DeltaSsspOptions{.max_weight = 0}),
      std::invalid_argument);
  sim::Cluster wrong(spec_of(4, 1));
  EXPECT_THROW(DistributedDeltaSssp(dg, wrong), std::invalid_argument);
}

TEST(SerialDeltaSssp, StatsReflectLightHeavySplit) {
  graph::EdgeList g = graph::grid_graph(6, 6);
  graph::assign_uniform_weights(g, 40, 11);
  const graph::WeightedHostCsr host = graph::build_weighted_host_csr(g);
  baseline::SerialDeltaStats stats;
  const auto dist = baseline::serial_delta_sssp(
      host.csr, std::span<const std::uint32_t>(host.weights), 0, 10, &stats);
  EXPECT_EQ(dist, baseline::serial_sssp(
                      host.csr, std::span<const std::uint32_t>(host.weights),
                      0));
  EXPECT_GT(stats.buckets_processed, 1u);
  EXPECT_GE(stats.light_phases, stats.buckets_processed);
  EXPECT_GT(stats.light_relaxations, 0u);
  EXPECT_GT(stats.heavy_relaxations, 0u);
}

TEST(SerialDeltaSssp, RejectsBadArguments) {
  const graph::HostCsr host = graph::build_host_csr(graph::path_graph(4));
  EXPECT_THROW(baseline::serial_delta_sssp(host, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(baseline::serial_delta_sssp(host, 0, 4, 0),
               std::invalid_argument);
  const std::vector<std::uint32_t> short_weights(1, 1);
  EXPECT_THROW(
      baseline::serial_delta_sssp(
          host, std::span<const std::uint32_t>(short_weights), 0, 4),
      std::invalid_argument);
}

}  // namespace
}  // namespace dsbfs::core
