#include "core/batch_sssp.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "baseline/host_apps.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "util/lane_value_slab.hpp"

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
  sources.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    sources.push_back((static_cast<VertexId>(i) * 37 + 1) % num_vertices);
  }
  return sources;
}

/// Every lane of a batched run must reproduce baseline::serial_delta_sssp
/// from its own source, bit for bit.
void expect_lanes_match_serial(const graph::EdgeList& g,
                               const BatchSsspResult& r,
                               const std::vector<VertexId>& sources,
                               std::uint64_t delta, const char* label) {
  const graph::HostCsr host = graph::build_host_csr(g);
  ASSERT_EQ(r.distances.size(), sources.size()) << label;
  for (std::size_t lane = 0; lane < sources.size(); ++lane) {
    const auto oracle =
        baseline::serial_delta_sssp(host, sources[lane], delta);
    ASSERT_EQ(r.distances[lane].size(), oracle.size()) << label;
    for (VertexId v = 0; v < oracle.size(); ++v) {
      ASSERT_EQ(r.distances[lane][v], oracle[v])
          << label << " lane " << lane << " source " << sources[lane]
          << " vertex " << v;
    }
  }
}

struct BatchCase {
  const char* name;
  int width;
  sim::ExchangeTopology topology;
};

class BatchSsspSweep : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchSsspSweep, RmatLanesMatchSerialOracle) {
  const BatchCase c = GetParam();
  const graph::EdgeList g = graph::rmat_graph500({.scale = 8, .seed = 77});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const std::vector<VertexId> sources = pick_sources(c.width, g.num_vertices);
  DistributedBatchSssp sssp(
      dg, cluster,
      {.delta = 5, .run = {.uniquify = true, .exchange_topology = c.topology}});
  const BatchSsspResult r = sssp.run(sources);
  expect_lanes_match_serial(g, r, sources, 5, c.name);
  EXPECT_GT(r.iterations, 0);
  EXPECT_GT(r.buckets_processed, 0u);
}

TEST_P(BatchSsspSweep, GridLanesMatchSerialOracle) {
  const BatchCase c = GetParam();
  const graph::EdgeList g = graph::grid_graph(9, 7);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  const std::vector<VertexId> sources = pick_sources(c.width, g.num_vertices);
  DistributedBatchSssp sssp(
      dg, cluster,
      {.delta = 8, .run = {.uniquify = true, .exchange_topology = c.topology}});
  const BatchSsspResult r = sssp.run(sources);
  expect_lanes_match_serial(g, r, sources, 8, c.name);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchSsspSweep,
    ::testing::Values(
        BatchCase{"w1_flat", 1, sim::ExchangeTopology::kFlat},
        BatchCase{"w8_flat", 8, sim::ExchangeTopology::kFlat},
        BatchCase{"w64_flat", 64, sim::ExchangeTopology::kFlat},
        BatchCase{"w8_butterfly", 8, sim::ExchangeTopology::kButterfly},
        BatchCase{"w64_butterfly", 64, sim::ExchangeTopology::kButterfly}),
    [](const auto& info) { return info.param.name; });

TEST(BatchSssp, NarrowLanesMatchWideLanesAndCompressIsBitExact) {
  // value_bits only changes the wire/packing, never the distances; the
  // codecs (varint with its bucket bias, adaptive, Gorilla) only change
  // wire bytes.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 8, .seed = 55});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const std::vector<VertexId> sources = pick_sources(8, g.num_vertices);

  const BatchSsspResult wide =
      DistributedBatchSssp(dg, cluster, {.delta = 5, .value_bits = 64})
          .run(sources);
  const BatchSsspResult narrow =
      DistributedBatchSssp(dg, cluster, {.delta = 5, .value_bits = 16})
          .run(sources);
  ASSERT_EQ(wide.distances, narrow.distances);
  for (const comm::WireCodec codec :
       {comm::WireCodec::kVarint, comm::WireCodec::kAdaptive,
        comm::WireCodec::kGorilla}) {
    const BatchSsspResult packed =
        DistributedBatchSssp(dg, cluster,
                             {.delta = 5,
                              .value_bits = 16,
                              .run = {.uniquify = true, .codec = codec}})
            .run(sources);
    ASSERT_EQ(wide.distances, packed.distances) << static_cast<int>(codec);
  }
  // 16-bit lanes pack four distances per word: less update traffic than
  // one word per (vertex, lane).
  EXPECT_LT(narrow.update_bytes_remote, wide.update_bytes_remote);
  EXPECT_LT(narrow.reduce_bytes, wide.reduce_bytes);
}

TEST(BatchSssp, AllDelegatesAndNoDelegatesAgree) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 8, .seed = 8});
  const std::vector<VertexId> sources = pick_sources(8, g.num_vertices);
  std::vector<std::vector<std::uint64_t>> first;
  for (const std::uint32_t th : {std::uint32_t{0}, std::uint32_t{16},
                                 std::uint32_t{1u << 20}}) {
    const auto spec = spec_of(2, 2);
    sim::Cluster cluster(spec);
    const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
    const BatchSsspResult r =
        DistributedBatchSssp(dg, cluster, {.delta = 6}).run(sources);
    if (first.empty()) {
      first = r.distances;
      expect_lanes_match_serial(g, r, sources, 6, "threshold sweep");
    } else {
      ASSERT_EQ(r.distances, first) << "threshold " << th;
    }
  }
}

TEST(BatchSssp, OverflowingLaneWidthThrows) {
  // 63 hashed-weight hops sum far past the 8-bit sentinel (255) for the
  // far end of the path; the run must refuse rather than alias.
  const graph::EdgeList g = graph::path_graph(64);
  const auto spec = spec_of(2, 1);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  DistributedBatchSssp sssp(dg, cluster, {.delta = 8, .value_bits = 8});
  EXPECT_THROW(sssp.run({0}), std::overflow_error);
  // The same run at 16 bits is fine (max distance < 65535).
  DistributedBatchSssp wide(dg, cluster, {.delta = 8, .value_bits = 16});
  const BatchSsspResult r = wide.run({0});
  expect_lanes_match_serial(g, r, {0}, 8, "widened");
}

TEST(BatchSssp, ValueWidthForPicksSafeWidths) {
  EXPECT_EQ(util::value_width_for(0), 8);
  EXPECT_EQ(util::value_width_for(254), 8);
  EXPECT_EQ(util::value_width_for(255), 16);  // sentinel must stay free
  EXPECT_EQ(util::value_width_for(65534), 16);
  EXPECT_EQ(util::value_width_for(65535), 32);
  EXPECT_EQ(util::value_width_for((1ULL << 32) - 2), 32);
  EXPECT_EQ(util::value_width_for((1ULL << 32) - 1), 64);
}

TEST(BatchSssp, RejectsBadArguments) {
  const graph::EdgeList g = graph::path_graph(8);
  const auto spec = spec_of(2, 1);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  DistributedBatchSssp sssp(dg, cluster);
  EXPECT_THROW(sssp.run({}), std::invalid_argument);
  EXPECT_THROW(sssp.run(std::vector<VertexId>(65, 0)), std::invalid_argument);
  EXPECT_THROW(sssp.run({1000}), std::out_of_range);
  EXPECT_THROW(
      DistributedBatchSssp(dg, cluster, BatchSsspOptions{.delta = 0}),
      std::invalid_argument);
  EXPECT_THROW(
      DistributedBatchSssp(dg, cluster, BatchSsspOptions{.value_bits = 24}),
      std::invalid_argument);
}

TEST(BatchSssp, StoredWeightsMatchSerialOracle) {
  graph::EdgeList g = graph::rmat_graph500({.scale = 8, .seed = 32});
  graph::assign_uniform_weights(g, 24, 13);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  ASSERT_TRUE(dg.weighted());
  const graph::WeightedHostCsr host = graph::build_weighted_host_csr(g);
  const std::vector<VertexId> sources = pick_sources(8, g.num_vertices);

  const BatchSsspResult r =
      DistributedBatchSssp(dg, cluster, {.delta = 6}).run(sources);
  for (std::size_t lane = 0; lane < sources.size(); ++lane) {
    const auto oracle = baseline::serial_delta_sssp(
        host.csr, std::span<const std::uint32_t>(host.weights),
        sources[lane], 6);
    ASSERT_EQ(r.distances[lane], oracle) << "lane " << lane;
  }
}

}  // namespace
}  // namespace dsbfs::core
