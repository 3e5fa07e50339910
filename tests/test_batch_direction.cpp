#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "baseline/serial_bfs.hpp"
#include "core/batch_bfs.hpp"
#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"

/// Direction-optimized batched BFS: union-frontier bottom-up rounds must
/// keep every lane bit-exact against the serial reference, the W = 1 hybrid
/// batch must reproduce the single-source hybrid run's direction decisions
/// and traffic exactly, and the online direction controller must be
/// deterministic run to run.
namespace dsbfs::core {
namespace {

struct GraphSetup {
  graph::EdgeList edges;
  sim::ClusterSpec spec;
};

GraphSetup rmat_setup(int scale, std::uint64_t seed, int ranks, int gpus) {
  GraphSetup s;
  s.edges = graph::rmat_graph500({.scale = scale, .seed = seed});
  s.spec.num_ranks = ranks;
  s.spec.gpus_per_rank = gpus;
  return s;
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

class HybridBatchBfs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HybridBatchBfs, EveryLaneBitExactWithValidParents) {
  const std::size_t batch = GetParam();
  const GraphSetup setup = rmat_setup(10, 91, 2, 2);
  sim::Cluster cluster(setup.spec);
  const graph::DistributedGraph dg =
      graph::build_distributed(setup.edges, setup.spec, 16);
  const graph::HostCsr csr = graph::build_host_csr(setup.edges);

  BatchBfsOptions options;
  options.direction = TraversalDirection::kHybrid;
  options.compute_parents = true;
  DistributedBatchBfs bfs(dg, cluster, options);
  const std::vector<VertexId> sources = pick_sources(bfs, batch);
  const BatchBfsResult r = bfs.run(sources);

  ASSERT_EQ(r.distances.size(), sources.size());
  for (std::size_t lane = 0; lane < sources.size(); ++lane) {
    const auto expected = baseline::serial_bfs(csr, sources[lane]);
    const ValidationReport ref =
        validate_against_reference(r.distances[lane], expected);
    ASSERT_TRUE(ref.ok) << "lane " << lane << ": " << ref.error;
    const ValidationReport tree =
        validate_parents(setup.edges, sources[lane], r.distances[lane],
                         r.parents[lane]);
    ASSERT_TRUE(tree.ok) << "lane " << lane << ": " << tree.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, HybridBatchBfs,
                         ::testing::Values(std::size_t{1}, std::size_t{32},
                                           std::size_t{64}),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(HybridBatchBfsRegression, WideBatchesTakePullRoundsAndCountLiveLanes) {
  // The point of the union-frontier generalization: with 64 lanes saturating
  // the graph, the frontier edge mass crosses the thresholds and the batch
  // actually runs bottom-up rounds.  The live-lane occupancy columns must be
  // populated and bounded by the lane width.
  const GraphSetup setup = rmat_setup(10, 92, 2, 2);
  sim::Cluster cluster(setup.spec);
  const graph::DistributedGraph dg =
      graph::build_distributed(setup.edges, setup.spec, 16);
  BatchBfsOptions options;
  options.direction = TraversalDirection::kHybrid;
  DistributedBatchBfs bfs(dg, cluster, options);
  const std::vector<VertexId> sources = pick_sources(bfs, 64);
  const BatchBfsResult r = bfs.run(sources);

  int pull_rounds = 0;
  std::uint64_t max_live_frontier = 0, max_live_delegate = 0;
  for (const IterationStats& it : r.metrics.per_iteration) {
    if (it.dd_backward || it.dn_backward || it.nd_backward) ++pull_rounds;
    max_live_frontier = std::max(max_live_frontier, it.live_frontier_lanes);
    max_live_delegate = std::max(max_live_delegate, it.live_delegate_lanes);
  }
  EXPECT_GE(pull_rounds, 1);
  EXPECT_GT(max_live_frontier, 1u);
  EXPECT_LE(max_live_frontier, 64u);
  EXPECT_GT(max_live_delegate, 1u);
  EXPECT_LE(max_live_delegate, 64u);
}

/// Per-iteration, per-GPU direction decisions of a run, for exact
/// comparison across runs and engines.
std::vector<std::vector<std::array<bool, 3>>> decisions(
    const sim::RunCounters& counters) {
  std::vector<std::vector<std::array<bool, 3>>> out;
  for (const auto& ic : counters.iterations) {
    std::vector<std::array<bool, 3>> row;
    for (const auto& c : ic.gpu) {
      row.push_back({c.dd.backward && c.dd.launched,
                     c.dn.backward && c.dn.launched,
                     c.nd.backward && c.nd.launched});
    }
    out.push_back(std::move(row));
  }
  return out;
}

TEST(HybridBatchBfsRegression, WidthOneReproducesSingleSourceHybridExactly) {
  // At W = 1 the live-lane population is 1 (H_1 = 1), the all-lane pools
  // equal the single-source pools, and the controller observes identical
  // counters -- so the hybrid batch must make the same direction decision
  // every round as the hybrid DistributedBfs and move identical traffic.
  const GraphSetup setup = rmat_setup(10, 93, 2, 2);
  sim::Cluster cluster(setup.spec);
  const graph::DistributedGraph dg =
      graph::build_distributed(setup.edges, setup.spec, 16);

  DistributedBfs single(dg, cluster, {});  // direction_optimized by default
  BatchBfsOptions batch_options;
  batch_options.direction = TraversalDirection::kHybrid;
  DistributedBatchBfs batch(dg, cluster, batch_options);

  const VertexId source = single.sample_source(1);
  const BfsResult sr = single.run(source);
  const std::vector<VertexId> sources{source};
  const BatchBfsResult br = batch.run(sources);

  EXPECT_EQ(br.metrics.lane_bits, 1);
  ASSERT_EQ(br.distances.size(), 1u);
  EXPECT_EQ(br.distances[0], sr.distances);

  const RunMetrics& sm = sr.metrics;
  const RunMetrics& bm = br.metrics;
  EXPECT_EQ(bm.iterations, sm.iterations);
  EXPECT_EQ(decisions(bm.counters), decisions(sm.counters));
  EXPECT_EQ(bm.edges_traversed, sm.edges_traversed);
  EXPECT_EQ(bm.exchange_remote_bytes, sm.exchange_remote_bytes);
  EXPECT_EQ(bm.exchange_local_bytes, sm.exchange_local_bytes);
  EXPECT_EQ(bm.mask_reduce_bytes, sm.mask_reduce_bytes);
  EXPECT_EQ(bm.delegate_reduce_iterations, sm.delegate_reduce_iterations);
}

TEST(HybridBatchBfsRegression, ControllerDecisionsAreDeterministic) {
  // Same graph, same sources, same options: the adaptive controller's
  // inputs are all deterministic counters, so two runs must agree on every
  // per-GPU per-round direction decision and on the full modeled outcome.
  const GraphSetup setup = rmat_setup(10, 94, 2, 2);
  sim::Cluster cluster(setup.spec);
  const graph::DistributedGraph dg =
      graph::build_distributed(setup.edges, setup.spec, 16);
  BatchBfsOptions options;
  options.direction = TraversalDirection::kHybrid;
  DistributedBatchBfs bfs(dg, cluster, options);
  const std::vector<VertexId> sources = pick_sources(bfs, 32);

  const BatchBfsResult a = bfs.run(sources);
  const BatchBfsResult b = bfs.run(sources);
  EXPECT_EQ(a.distances, b.distances);
  EXPECT_EQ(a.metrics.iterations, b.metrics.iterations);
  EXPECT_EQ(decisions(a.metrics.counters), decisions(b.metrics.counters));
  EXPECT_EQ(a.metrics.edges_traversed, b.metrics.edges_traversed);
  EXPECT_EQ(a.metrics.modeled_ms, b.metrics.modeled_ms);
}

TEST(HybridBatchBfsRegression, ForcedPushDefaultTakesNoPullRounds) {
  // The default direction policy must stay the historic forced-push MS-BFS:
  // no backward kernel ever launches and no decision flags are recorded.
  const GraphSetup setup = rmat_setup(9, 95, 2, 1);
  sim::Cluster cluster(setup.spec);
  const graph::DistributedGraph dg =
      graph::build_distributed(setup.edges, setup.spec, 16);
  DistributedBatchBfs bfs(dg, cluster, {});
  const std::vector<VertexId> sources = pick_sources(bfs, 64);
  const BatchBfsResult r = bfs.run(sources);
  for (const IterationStats& it : r.metrics.per_iteration) {
    EXPECT_FALSE(it.dd_backward || it.dn_backward || it.nd_backward);
  }
  for (const auto& ic : r.metrics.counters.iterations) {
    for (const auto& c : ic.gpu) EXPECT_FALSE(c.direction_decisions);
  }
}

}  // namespace
}  // namespace dsbfs::core
