#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "core/batch_sssp.hpp"
#include "core/betweenness.hpp"
#include "core/bfs.hpp"
#include "core/components.hpp"
#include "core/pagerank.hpp"
#include "core/sssp.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace dsbfs::core {
namespace {

constexpr comm::ReduceMode kBlocking = comm::ReduceMode::kBlocking;

graph::DistributedGraph small_graph(sim::ClusterSpec spec) {
  return graph::build_distributed(
      graph::rmat_graph500({.scale = 9, .seed = 61}), spec, 16);
}

std::vector<std::vector<sim::GpuIterationCounters>> synthetic_histories(
    int gpus, int iterations, bool delegate_on_even) {
  std::vector<std::vector<sim::GpuIterationCounters>> h(
      static_cast<std::size_t>(gpus));
  for (int g = 0; g < gpus; ++g) {
    for (int it = 0; it < iterations; ++it) {
      sim::GpuIterationCounters c;
      c.dd.edges = 100;
      c.dd.launched = true;
      c.nn.edges = 50;
      c.nn.vertices = 10;
      c.nn.launched = true;
      c.bin_vertices = 10;
      c.send_bytes_remote = 40;
      c.local_all2all_bytes = 8;
      c.delegate_update = delegate_on_even && (it % 2 == 0);
      h[static_cast<std::size_t>(g)].push_back(c);
    }
  }
  return h;
}

TEST(Metrics, AggregatesTotals) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const auto dg = small_graph(spec);
  auto m = assemble_metrics(dg, /*overlap=*/true, kBlocking,
                            synthetic_histories(4, 6, true),
                            /*measured_ms=*/10.0, /*fault=*/{});
  EXPECT_EQ(m.iterations, 6);
  EXPECT_EQ(m.delegate_reduce_iterations, 3);  // even iterations only
  EXPECT_EQ(m.edges_traversed, 4u * 6 * 150);
  EXPECT_EQ(m.exchange_remote_bytes, 4u * 6 * 40);
  EXPECT_EQ(m.exchange_local_bytes, 4u * 6 * 8);
  EXPECT_EQ(m.teps_edges, dg.num_edges() / 2);
  EXPECT_DOUBLE_EQ(m.measured_ms, 10.0);
  EXPECT_GT(m.measured_gteps, 0.0);
}

TEST(Metrics, MaskVolumeUsesPaperFormula) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const auto dg = small_graph(spec);
  auto m = assemble_metrics(dg, true, kBlocking,
                            synthetic_histories(4, 4, true), 1.0, {});
  const std::uint64_t d_bytes = (dg.num_delegates() + 7) / 8;
  EXPECT_EQ(m.mask_reduce_bytes, 2 * d_bytes * 2 * 2);  // 2 ranks, S' = 2
}

TEST(Metrics, PerIterationTraceHasOneRowPerIteration) {
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 2;
  const auto dg = small_graph(spec);
  const auto m = assemble_metrics(dg, true, kBlocking,
                                  synthetic_histories(2, 5, false), 1.0, {});
  ASSERT_EQ(m.per_iteration.size(), 5u);
  for (const IterationStats& row : m.per_iteration) {
    EXPECT_EQ(row.frontier_normals, 2u * 10);
    EXPECT_EQ(row.edges_traversed, 2u * 150);
    EXPECT_EQ(row.exchanged_vertices, 2u * 10);
    EXPECT_FALSE(row.delegate_reduce);
  }
}

TEST(Metrics, ModeledBreakdownPopulated) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const auto dg = small_graph(spec);
  auto m = assemble_metrics(dg, true, kBlocking,
                            synthetic_histories(2, 8, true), 1.0, {});
  EXPECT_GT(m.modeled_ms, 0.0);
  EXPECT_GT(m.modeled_gteps, 0.0);
  EXPECT_GT(m.modeled.computation_ms, 0.0);
  EXPECT_GT(m.modeled.delegate_reduce_ms, 0.0);
  EXPECT_DOUBLE_EQ(m.modeled.elapsed_ms, m.modeled_ms);
}

TEST(Metrics, CountersPreservedForReplay) {
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 2;
  const auto dg = small_graph(spec);
  auto m = assemble_metrics(dg, true, comm::ReduceMode::kNonBlocking,
                            synthetic_histories(2, 3, true), 1.0, {});
  EXPECT_EQ(m.counters.iterations.size(), 3u);
  EXPECT_EQ(m.counters.spec.total_gpus(), 2);
  EXPECT_FALSE(m.counters.blocking_reduce);
  EXPECT_EQ(m.counters.delegate_mask_bytes, (dg.num_delegates() + 7) / 8);
  // A PerfModel replay of the preserved counters equals the stored result.
  const auto replayed = sim::PerfModel{}.replay(m.counters);
  EXPECT_DOUBLE_EQ(replayed.elapsed_ms, m.modeled_ms);
}

TEST(Metrics, EmptyHistoriesProduceZeroRun) {
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 1;
  const auto dg = small_graph(spec);
  std::vector<std::vector<sim::GpuIterationCounters>> empty(1);
  auto m = assemble_metrics(dg, true, kBlocking, std::move(empty), 0.5, {});
  EXPECT_EQ(m.iterations, 0);
  EXPECT_EQ(m.edges_traversed, 0u);
}

TEST(ValueReportGolden, CountersAndModeledTimeArePinned) {
  // RMAT-12 on 2x2 at TH 32, one run of each value facade.  How a result is
  // assembled from its engine run may change; the rounds it reports, the
  // bytes it moved, its counter rows and the time the model charges may not.
  struct Golden {
    const char* name;
    int iterations;
    std::uint64_t update_bytes, reduce_bytes;
    std::size_t rows;
    double modeled_ms;
  };
  const auto expect_pinned = [](const Golden& gold, const auto& r) {
    SCOPED_TRACE(gold.name);
    EXPECT_EQ(r.iterations, gold.iterations);
    EXPECT_EQ(r.update_bytes_remote, gold.update_bytes);
    EXPECT_EQ(r.reduce_bytes, gold.reduce_bytes);
    EXPECT_EQ(r.counters.iterations.size(), gold.rows);
    EXPECT_NEAR(r.modeled_ms, gold.modeled_ms, 1e-12 * gold.modeled_ms);
    EXPECT_EQ(sim::PerfModel{}.replay(r.counters).elapsed_ms, r.modeled_ms);
  };
  const graph::EdgeList g = graph::rmat_graph500({.scale = 12, .seed = 19});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 32);
  const VertexId source = sample_traversal_source(dg, 3);
  std::vector<VertexId> sources;
  for (std::uint64_t k = 0; k < 8; ++k) {
    sources.push_back(sample_traversal_source(dg, k));
  }

  expect_pinned({"cc", 5, 32772, 125920, 5, 0.39612379202791592},
                ConnectedComponents(dg, cluster).run());
  PagerankOptions pr_options;
  pr_options.max_iterations = 10;
  pr_options.tolerance = 0.0;
  expect_pinned({"pagerank", 10, 110760, 251840, 10, 0.87055677530779796},
                DistributedPagerank(dg, cluster, pr_options).run());
  expect_pinned({"sssp", 7, 23220, 176288, 7, 0.47315980827968018},
                DistributedSssp(dg, cluster).run(source));
  expect_pinned({"batch_sssp_w8", 21, 87216, 2115456, 21, 1.5484620776597247},
                DistributedBatchSssp(dg, cluster).run(sources));

  // Betweenness: 5 forward + 4 reverse rounds; bytes and rows summed over
  // the two passes, the modeled time composed from their replays.
  const BetweennessResult bc = BetweennessCentrality(dg, cluster).run(sources);
  EXPECT_EQ(bc.forward.iterations, 5);
  EXPECT_EQ(bc.reverse.iterations, 4);
  EXPECT_EQ(bc.forward.update_bytes_remote + bc.reverse.update_bytes_remote,
            43703676u);
  EXPECT_EQ(bc.forward.reduce_bytes + bc.reverse.reduce_bytes, 1007360u);
  EXPECT_EQ(bc.forward.counters.iterations.size() +
                bc.reverse.counters.iterations.size(),
            9u);
  EXPECT_NEAR(bc.modeled_ms, 3.2297763749003496, 1e-12 * 3.2297763749003496);
  const sim::ModeledBreakdown composed =
      sim::compose_breakdowns(sim::PerfModel{}.replay(bc.forward.counters),
                              sim::PerfModel{}.replay(bc.reverse.counters));
  EXPECT_EQ(composed.elapsed_ms, bc.modeled_ms);
}

}  // namespace
}  // namespace dsbfs::core
