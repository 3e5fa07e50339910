#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/query_scheduler.hpp"
#include "graph/generators.hpp"

/// Latency-metrics math of the serving tier: summarize_latencies against a
/// naive sort-based oracle (ties, single-sample and empty inputs included),
/// and the consistency of a real run's assembled metrics -- timestamps in
/// order, wait + service == latency, QPS == queries / makespan, and the
/// modeled iteration-end clock the timestamps come from monotone.
namespace dsbfs::core {
namespace {

/// Independent oracle: sort, then linear interpolation between order
/// statistics at rank p/100 * (n-1).
double naive_percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

void expect_matches_oracle(const std::vector<double>& values) {
  const LatencySummary s = summarize_latencies(values);
  EXPECT_EQ(s.count, values.size());
  EXPECT_DOUBLE_EQ(s.p50, naive_percentile(values, 50));
  EXPECT_DOUBLE_EQ(s.p95, naive_percentile(values, 95));
  EXPECT_DOUBLE_EQ(s.p99, naive_percentile(values, 99));
  double sum = 0;
  double mx = 0;
  for (const double v : values) {
    sum += v;
    mx = std::max(mx, v);
  }
  if (!values.empty()) {
    EXPECT_DOUBLE_EQ(s.mean, sum / static_cast<double>(values.size()));
    EXPECT_DOUBLE_EQ(s.max, mx);
  }
}

TEST(SchedulerMetrics, PercentilesMatchSortOracle) {
  expect_matches_oracle({3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3});
  expect_matches_oracle({10.0, 0.5, 2.25, 7.75});  // interpolated ranks
  // Unsorted input with a wide spread: the summary must sort internally.
  std::vector<double> wide;
  for (int i = 99; i >= 0; --i) wide.push_back(static_cast<double>(i * i));
  expect_matches_oracle(wide);
}

TEST(SchedulerMetrics, TiesCollapseToTheTiedValue) {
  const std::vector<double> ties(7, 4.25);
  expect_matches_oracle(ties);
  const LatencySummary s = summarize_latencies(ties);
  EXPECT_DOUBLE_EQ(s.p50, 4.25);
  EXPECT_DOUBLE_EQ(s.p99, 4.25);
  EXPECT_DOUBLE_EQ(s.mean, 4.25);
  // Partial ties: percentiles between tied neighbours stay on the tie.
  expect_matches_oracle({1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0});
}

TEST(SchedulerMetrics, SingleQueryTraceIsItsOwnEveryPercentile) {
  const LatencySummary s = summarize_latencies({6.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 6.5);
  EXPECT_DOUBLE_EQ(s.p95, 6.5);
  EXPECT_DOUBLE_EQ(s.p99, 6.5);
  EXPECT_DOUBLE_EQ(s.mean, 6.5);
  EXPECT_DOUBLE_EQ(s.max, 6.5);
}

TEST(SchedulerMetrics, EmptyTraceSummarizesToZero) {
  const LatencySummary s = summarize_latencies({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(SchedulerMetrics, AssembledRunMetricsAreInternallyConsistent) {
  const graph::EdgeList g = graph::grid_graph(16, 16);
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 4);
  const std::vector<QueryArrival> trace = make_arrival_trace(
      dg, {.queries = 6, .rate = 1.0, .pattern = ArrivalPattern::kUniform,
           .seed = 41});
  QueryScheduler scheduler(dg, cluster, {.width = 2});
  const SchedulerOutcome out = scheduler.run(trace);
  const SchedulerMetrics& m = out.metrics;

  EXPECT_EQ(m.queries, 6u);
  EXPECT_EQ(m.admissions, 6u);
  EXPECT_DOUBLE_EQ(
      m.queries_per_sec,
      static_cast<double>(m.queries) / (m.run.modeled_ms / 1000.0));
  EXPECT_EQ(m.latency.count, m.queries);
  EXPECT_EQ(m.wait.count, m.queries);
  EXPECT_EQ(m.service.count, m.queries);
  EXPECT_GT(m.mean_occupancy, 0.0);
  EXPECT_LE(m.mean_occupancy, 2.0 + 1e-9);  // never above the lane budget

  // The timestamps every latency derives from: the modeled iteration-end
  // clock has one entry per executed iteration and never runs backwards.
  const std::vector<double>& clock = m.run.modeled.iteration_end_ms;
  ASSERT_EQ(clock.size(),
            static_cast<std::size_t>(m.run.counters.iterations.size()));
  ASSERT_EQ(clock.size(), static_cast<std::size_t>(m.run.iterations));
  for (std::size_t i = 1; i < clock.size(); ++i) {
    EXPECT_GE(clock[i], clock[i - 1]) << "iteration " << i;
  }
  EXPECT_GT(clock.back(), 0.0);

  for (std::size_t i = 0; i < out.queries.size(); ++i) {
    const ServedQuery& q = out.queries[i];
    EXPECT_LE(q.arrival_ms, q.admit_ms) << "query " << i;
    EXPECT_LT(q.admit_ms, q.retire_ms) << "query " << i;
    EXPECT_NEAR(q.wait_ms + q.service_ms, q.latency_ms, 1e-9) << "query " << i;
    EXPECT_LE(q.retire_ms, m.run.modeled_ms + 1e-9) << "query " << i;
  }

  // The summaries summarize exactly the per-query columns.
  std::vector<double> latencies;
  for (const ServedQuery& q : out.queries) latencies.push_back(q.latency_ms);
  EXPECT_DOUBLE_EQ(m.latency.p50, naive_percentile(latencies, 50));
  EXPECT_DOUBLE_EQ(m.latency.p99, naive_percentile(latencies, 99));
}

}  // namespace
}  // namespace dsbfs::core
