#include <gtest/gtest.h>

#include <string>

#include "baseline/serial_bfs.hpp"
#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

/// Property sweep: the distributed (DO)BFS must produce exactly the serial
/// BFS distances for every combination of graph family, cluster topology,
/// degree threshold and option set.  These parameterized cases are the
/// backbone correctness guarantee of the library.
namespace dsbfs::core {
namespace {

enum class GraphFamily { kRmat, kErdosRenyi, kChungLu, kWeb };

struct PropertyCase {
  std::string name;
  GraphFamily family;
  int ranks, gpus;
  std::uint32_t threshold;
  bool direction_optimized;
  bool local_all2all;
  bool uniquify;
  comm::ReduceMode reduce_mode = comm::ReduceMode::kBlocking;
};

graph::EdgeList make_graph(GraphFamily family) {
  switch (family) {
    case GraphFamily::kRmat:
      return graph::rmat_graph500({.scale = 10, .seed = 71});
    case GraphFamily::kErdosRenyi:
      return graph::erdos_renyi(1 << 10, 1 << 13, 72);
    case GraphFamily::kChungLu: {
      graph::ChungLuParams p;
      p.num_vertices = 1 << 10;
      p.num_edges = 1 << 13;
      p.seed = 73;
      return graph::make_symmetric(graph::chung_lu(p));
    }
    case GraphFamily::kWeb: {
      graph::WebGraphLikeParams p;
      p.chain_length = 24;
      p.community_size = 64;
      p.seed = 74;
      return graph::webgraph_like(p);
    }
  }
  return {};
}

class BfsProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(BfsProperty, MatchesSerialAndValidates) {
  const PropertyCase c = GetParam();
  const graph::EdgeList g = make_graph(c.family);
  sim::ClusterSpec spec;
  spec.num_ranks = c.ranks;
  spec.gpus_per_rank = c.gpus;

  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, c.threshold);

  BfsOptions options;
  options.direction_optimized = c.direction_optimized;
  options.local_all2all = c.local_all2all;
  options.run.uniquify = c.uniquify;
  options.reduce_mode = c.reduce_mode;
  DistributedBfs bfs(dg, cluster, options);

  const graph::HostCsr csr = graph::build_host_csr(g);
  for (std::uint64_t k = 0; k < 3; ++k) {
    const VertexId source = bfs.sample_source(k * 17 + 1);
    const BfsResult result = bfs.run(source);

    // Exact equality with the serial reference.
    const auto expected = baseline::serial_bfs(csr, source);
    const ValidationReport ref =
        validate_against_reference(result.distances, expected);
    ASSERT_TRUE(ref.ok) << ref.error << " (source " << source << ")";

    // And the Graph500-style structural validation.
    const ValidationReport structural =
        validate_distances(g, source, result.distances);
    ASSERT_TRUE(structural.ok) << structural.error;

    // Metric invariants.
    const RunMetrics& m = result.metrics;
    EXPECT_GT(m.iterations, 0);
    EXPECT_LE(m.delegate_reduce_iterations, m.iterations);
    EXPECT_GT(m.edges_traversed, 0u);
    EXPECT_EQ(m.teps_edges, g.size() / 2);
    EXPECT_GT(m.modeled_ms, 0.0);
  }
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  // Topology sweep at fixed options.
  for (const auto& [ranks, gpus] :
       {std::pair{1, 1}, {1, 4}, {4, 1}, {2, 2}, {2, 4}, {4, 2}, {3, 2}}) {
    cases.push_back({"rmat_t" + std::to_string(ranks) + "x" +
                         std::to_string(gpus),
                     GraphFamily::kRmat, ranks, gpus, 16, true, false, false});
  }
  // Threshold sweep.
  for (const std::uint32_t th : {0u, 2u, 8u, 32u, 128u, 100000u}) {
    cases.push_back({"rmat_th" + std::to_string(th), GraphFamily::kRmat, 2, 2,
                     th, true, false, false});
  }
  // Option matrix on a fixed topology.
  for (const bool dop : {false, true}) {
    for (const bool l : {false, true}) {
      for (const bool u : {false, true}) {
        cases.push_back({std::string("rmat_opt_") + (dop ? "do" : "xx") +
                             (l ? "_l" : "") + (u ? "_u" : ""),
                         GraphFamily::kRmat, 2, 2, 16, dop, l, u});
      }
    }
  }
  // Non-blocking reduction.
  cases.push_back({"rmat_ir", GraphFamily::kRmat, 4, 2, 16, true, true, true,
                   comm::ReduceMode::kNonBlocking});
  // Other graph families.
  for (const auto family : {GraphFamily::kErdosRenyi, GraphFamily::kChungLu,
                            GraphFamily::kWeb}) {
    const char* name = family == GraphFamily::kErdosRenyi ? "er"
                       : family == GraphFamily::kChungLu  ? "cl"
                                                          : "web";
    cases.push_back({std::string(name) + "_do", family, 2, 2, 16, true, false,
                     false});
    cases.push_back({std::string(name) + "_plain", family, 2, 2, 16, false,
                     false, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BfsProperty,
                         ::testing::ValuesIn(property_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(BfsDeterminism, SameRunTwiceIdentical) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 75});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const auto dg = build_distributed(g, spec, 16);
  DistributedBfs bfs(dg, cluster);
  const VertexId source = bfs.sample_source(1);
  const BfsResult a = bfs.run(source);
  const BfsResult b = bfs.run(source);
  EXPECT_EQ(a.distances, b.distances);
  EXPECT_EQ(a.metrics.iterations, b.metrics.iterations);
  EXPECT_EQ(a.metrics.edges_traversed, b.metrics.edges_traversed);
}

TEST(BfsWorkload, DirectionOptimizationReducesTraversedEdges) {
  // The reason DOBFS exists (Section II-B): the backward pull must shrink
  // the traversal workload substantially on scale-free graphs.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 12, .seed = 76});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const auto dg = build_distributed(g, spec, 32);

  BfsOptions plain;
  plain.direction_optimized = false;
  BfsOptions dopt;
  dopt.direction_optimized = true;

  DistributedBfs bfs_plain(dg, cluster, plain);
  DistributedBfs bfs_do(dg, cluster, dopt);
  const VertexId source = bfs_plain.sample_source(2);
  const auto r_plain = bfs_plain.run(source);
  const auto r_do = bfs_do.run(source);

  EXPECT_EQ(r_plain.distances, r_do.distances);
  EXPECT_LT(r_do.metrics.edges_traversed,
            r_plain.metrics.edges_traversed / 2);
}

TEST(BfsCommVolume, MaskBytesFollowSectionVFormula) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 77});
  sim::ClusterSpec spec;
  spec.num_ranks = 4;
  spec.gpus_per_rank = 1;
  sim::Cluster cluster(spec);
  const auto dg = build_distributed(g, spec, 16);
  DistributedBfs bfs(dg, cluster);
  const auto r = bfs.run(bfs.sample_source(0));
  // mask_reduce_bytes = 2 * d/8 * prank * S' exactly (assembled metric).
  const std::uint64_t d_bytes = (dg.num_delegates() + 7) / 8;
  EXPECT_EQ(r.metrics.mask_reduce_bytes,
            2 * d_bytes * 4 *
                static_cast<std::uint64_t>(r.metrics.delegate_reduce_iterations));
  // S' <= S, and on RMAT typically strictly smaller... at minimum bounded.
  EXPECT_LE(r.metrics.delegate_reduce_iterations, r.metrics.iterations);
}

}  // namespace
}  // namespace dsbfs::core
