#include "core/betweenness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "baseline/brandes.hpp"
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

std::vector<VertexId> pick_sources(int width, VertexId num_vertices) {
  std::vector<VertexId> sources;
  for (int i = 0; i < width; ++i) {
    sources.push_back((static_cast<VertexId>(i) * 37 + 1) % num_vertices);
  }
  return sources;
}

/// Distributed scores must equal the serial oracle's bit for bit -- the
/// reverse fold replays the identical double-addition sequence.
void expect_scores_bit_exact(const graph::EdgeList& g,
                             const BetweennessResult& r,
                             const std::vector<VertexId>& sources,
                             const char* label) {
  const graph::HostCsr host = graph::build_host_csr(g);
  const std::vector<double> oracle = baseline::serial_brandes(
      host, std::span<const VertexId>(sources));
  ASSERT_EQ(r.scores.size(), oracle.size()) << label;
  for (VertexId v = 0; v < oracle.size(); ++v) {
    ASSERT_EQ(r.scores[v], oracle[v]) << label << " vertex " << v;
  }
}

TEST(SerialBrandes, PassStateIsConsistentOnNamedGraphs) {
  for (const auto& [g, source] :
       {std::pair{graph::star_graph(12), VertexId{3}},
        std::pair{graph::path_graph(9), VertexId{0}},
        std::pair{graph::grid_graph(5, 4), VertexId{7}}}) {
    const graph::HostCsr host = graph::build_host_csr(g);
    const baseline::BrandesPass pass =
        baseline::serial_brandes_pass(host, source);
    // Depths agree with plain BFS; the source has one path to itself.
    EXPECT_EQ(pass.depth, baseline::serial_bfs(host, source));
    EXPECT_EQ(pass.sigma[source], 1u);
    EXPECT_EQ(pass.delta[source] >= 0.0, true);
    for (VertexId v = 0; v < host.num_rows(); ++v) {
      if (pass.depth[v] == kUnvisited) {
        EXPECT_EQ(pass.sigma[v], 0u);
        EXPECT_EQ(pass.delta[v], 0.0);
      } else {
        EXPECT_GE(pass.sigma[v], 1u);
      }
    }
  }
}

TEST(SerialBrandes, PathGraphScoresAreClosedForm) {
  // On a path 0-1-...-n-1 with all sources, bc[v] counts ordered reachable
  // pairs routed through v: 2 * (v) * (n - 1 - v).
  const int n = 9;
  const graph::EdgeList g = graph::path_graph(n);
  const graph::HostCsr host = graph::build_host_csr(g);
  std::vector<VertexId> all(n);
  std::iota(all.begin(), all.end(), 0);
  const auto bc =
      baseline::serial_brandes(host, std::span<const VertexId>(all));
  for (int v = 0; v < n; ++v) {
    EXPECT_DOUBLE_EQ(bc[static_cast<std::size_t>(v)],
                     2.0 * v * (n - 1 - v))
        << v;
  }
}

struct BcCase {
  const char* name;
  int ranks, gpus;
  std::uint32_t th;
  int width;
};

class BetweennessSweep : public ::testing::TestWithParam<BcCase> {};

TEST_P(BetweennessSweep, RmatScoresMatchSerialBrandesBitExact) {
  const BcCase c = GetParam();
  const graph::EdgeList g = graph::rmat_graph500({.scale = 8, .seed = 91});
  const auto spec = spec_of(c.ranks, c.gpus);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, c.th);
  const std::vector<VertexId> sources = pick_sources(c.width, g.num_vertices);
  BetweennessCentrality bc(dg, cluster);
  const BetweennessResult r = bc.run(sources);
  expect_scores_bit_exact(g, r, sources, c.name);
  EXPECT_GT(r.forward.iterations, 0);
  EXPECT_GT(r.reverse.iterations, 0);
  EXPECT_GT(r.max_depth, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BetweennessSweep,
    ::testing::Values(BcCase{"single_gpu", 1, 1, 16, 8},
                      BcCase{"quad_w1", 2, 2, 16, 1},
                      BcCase{"quad_w8", 2, 2, 16, 8},
                      BcCase{"quad_w64", 2, 2, 16, 64},
                      BcCase{"all_delegates", 2, 2, 0, 8},
                      BcCase{"no_delegates", 2, 2, 1u << 20, 8},
                      BcCase{"wide_cluster", 4, 2, 16, 8}),
    [](const auto& info) { return info.param.name; });

TEST(Betweenness, GridScoresMatchAndTopologySweepIsBitExact) {
  const graph::EdgeList g = graph::grid_graph(8, 6);
  const std::vector<VertexId> sources = pick_sources(16, g.num_vertices);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  std::vector<double> first;
  for (const auto topology :
       {sim::ExchangeTopology::kFlat, sim::ExchangeTopology::kHierarchical,
        sim::ExchangeTopology::kButterfly}) {
    BetweennessOptions options;
    options.run.exchange_topology = topology;
    BetweennessCentrality bc(dg, cluster, options);
    const BetweennessResult r = bc.run(sources);
    expect_scores_bit_exact(g, r, sources, "grid");
    if (first.empty()) {
      first = r.scores;
    } else {
      ASSERT_EQ(r.scores, first);
    }
  }
}

TEST(Betweenness, DisconnectedVerticesScoreZero) {
  graph::EdgeList g;
  g.num_vertices = 10;
  g.add(0, 1);
  g.add(1, 0);
  g.add(1, 2);
  g.add(2, 1);
  const auto spec = spec_of(2, 1);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  BetweennessCentrality bc(dg, cluster);
  const BetweennessResult r = bc.run({0, 5});
  expect_scores_bit_exact(g, r, {0, 5}, "disconnected");
  // Only vertex 1 lies between others; isolated vertices contribute 0.
  EXPECT_GT(r.scores[1], 0.0);
  for (VertexId v = 3; v < 10; ++v) EXPECT_EQ(r.scores[v], 0.0) << v;
}

TEST(Betweenness, ComposedModelCoversBothRuns) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 8, .seed = 14});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  BetweennessCentrality bc(dg, cluster);
  const BetweennessResult r = bc.run(pick_sources(8, g.num_vertices));
  EXPECT_GT(r.modeled_ms, 0.0);
  EXPECT_EQ(r.modeled.elapsed_ms, r.modeled_ms);
  // One iteration-end timestamp per executed row of *both* runs, and the
  // reverse run's stamps sit after the forward makespan.
  ASSERT_EQ(r.modeled.iteration_end_ms.size(),
            static_cast<std::size_t>(r.forward.iterations) +
                static_cast<std::size_t>(r.reverse.iterations));
  EXPECT_GT(r.forward.update_bytes_remote + r.reverse.update_bytes_remote, 0u);
  EXPECT_GT(r.forward.reduce_bytes, 0u);
  // Each pass keeps its own counter rows, so either can be re-modeled.
  for (const ValueRunReport* pass : {&r.forward, &r.reverse}) {
    EXPECT_EQ(sim::PerfModel{}.replay(pass->counters).elapsed_ms,
              pass->modeled_ms);
  }
}

TEST(Betweenness, RejectsBadArguments) {
  const graph::EdgeList g = graph::path_graph(8);
  const auto spec = spec_of(2, 1);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  BetweennessCentrality bc(dg, cluster);
  EXPECT_THROW(bc.run({}), std::invalid_argument);
  EXPECT_THROW(bc.run(std::vector<VertexId>(65, 0)), std::invalid_argument);
  EXPECT_THROW(bc.run({1000}), std::out_of_range);
  sim::Cluster wrong(spec_of(4, 1));
  EXPECT_THROW(BetweennessCentrality(dg, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace dsbfs::core
