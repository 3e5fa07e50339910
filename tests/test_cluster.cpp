#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <random>
#include <set>
#include <thread>

namespace dsbfs::sim {
namespace {

TEST(ClusterSpec, ParseAndToString) {
  const ClusterSpec s = ClusterSpec::parse("16x2x2");
  EXPECT_EQ(s.num_ranks, 32);
  EXPECT_EQ(s.gpus_per_rank, 2);
  EXPECT_EQ(s.ranks_per_node, 2);
  EXPECT_EQ(s.total_gpus(), 64);
  EXPECT_EQ(s.num_nodes(), 16);
  EXPECT_EQ(s.to_string(), "16x2x2");
}

TEST(ClusterSpec, ParseRejectsGarbage) {
  EXPECT_THROW(ClusterSpec::parse("4x2"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::parse("hello"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::parse("0x1x1"), std::invalid_argument);
}

TEST(ClusterSpec, GlobalGpuRoundTrip) {
  ClusterSpec s;
  s.num_ranks = 6;
  s.gpus_per_rank = 4;
  for (int g = 0; g < s.total_gpus(); ++g) {
    const GpuCoord c = s.coord_of(g);
    EXPECT_EQ(s.global_gpu(c), g);
    EXPECT_GE(c.rank, 0);
    EXPECT_LT(c.rank, 6);
    EXPECT_GE(c.gpu, 0);
    EXPECT_LT(c.gpu, 4);
  }
}

TEST(ClusterSpec, OwnershipFollowsAlgorithm1Formulas) {
  // P(v) = v mod prank, G(v) = (v / prank) mod pgpu.
  ClusterSpec s;
  s.num_ranks = 3;
  s.gpus_per_rank = 2;
  for (std::uint64_t v = 0; v < 100; ++v) {
    EXPECT_EQ(s.owner_rank(v), static_cast<int>(v % 3));
    EXPECT_EQ(s.owner_gpu(v), static_cast<int>((v / 3) % 2));
    EXPECT_EQ(s.owner_global_gpu(v),
              s.owner_rank(v) * s.gpus_per_rank + s.owner_gpu(v));
  }
}

TEST(ClusterSpec, LocalIndexRoundTrip) {
  ClusterSpec s;
  s.num_ranks = 3;
  s.gpus_per_rank = 2;
  for (std::uint64_t v = 0; v < 200; ++v) {
    const int rank = s.owner_rank(v);
    const int gpu = s.owner_gpu(v);
    const std::uint64_t local = s.local_index(v);
    EXPECT_EQ(s.global_vertex(rank, gpu, local), v);
    EXPECT_LT(local, (200 + 5) / static_cast<std::uint64_t>(s.total_gpus()) + 1);
  }
}

TEST(VertexRouter, SplitMatchesTheReferenceFormulas) {
  // Shapes in paper notation, up to the largest run (31x1x4 = 124 GPUs);
  // ids: a dense prefix, both neighbours of multiples of p, seeded random
  // 64-bit values and the top of the range.
  for (const char* shape :
       {"1x1x1", "2x1x1", "1x1x3", "3x2x5", "16x2x2", "31x1x4"}) {
    SCOPED_TRACE(shape);
    const ClusterSpec spec = ClusterSpec::parse(shape);
    const VertexRouter router(spec);
    const auto p = static_cast<std::uint64_t>(spec.total_gpus());
    std::uint64_t mismatches = 0;
    const auto check = [&](std::uint64_t v) {
      const VertexRouter::Split got = router.split(v);
      if (got.owner != spec.owner_global_gpu(v) ||
          got.local != spec.local_index(v)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "v " << v << ": {" << got.owner << ", "
                        << got.local << "} vs {" << spec.owner_global_gpu(v)
                        << ", " << spec.local_index(v) << "}";
        }
      }
    };
    for (std::uint64_t v = 0; v < 4096; ++v) check(v);
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    for (std::uint64_t k = 1; k <= 4096; ++k) {
      check(k * p - 1);
      check(k * p + 1);
      const std::uint64_t top = (kMax / p - k) * p;  // multiples near 2^64
      check(top - 1);
      check(top);
      check(top + 1);
    }
    std::mt19937_64 rng(20180521);
    for (int i = 0; i < 100000; ++i) check(rng());
    check(kMax);
    check(kMax - 1);
    EXPECT_EQ(mismatches, 0u);
  }
  ClusterSpec empty;
  empty.num_ranks = 0;
  EXPECT_THROW(VertexRouter{empty}, std::invalid_argument);
}

TEST(ClusterSpec, OwnershipBalanced) {
  ClusterSpec s;
  s.num_ranks = 4;
  s.gpus_per_rank = 2;
  std::vector<int> counts(static_cast<std::size_t>(s.total_gpus()), 0);
  for (std::uint64_t v = 0; v < 8000; ++v) {
    ++counts[static_cast<std::size_t>(s.owner_global_gpu(v))];
  }
  for (const int c : counts) EXPECT_EQ(c, 1000);
}

TEST(ClusterSpec, NodeHelpersPartitionRanksAndGpus) {
  // 2 ranks per node, 2 GPUs per rank: node k owns ranks {2k, 2k+1} and the
  // four consecutive global GPUs starting at its leader.
  ClusterSpec s;
  s.num_ranks = 4;
  s.gpus_per_rank = 2;
  s.ranks_per_node = 2;
  EXPECT_EQ(s.num_nodes(), 2);
  for (int r = 0; r < s.num_ranks; ++r) EXPECT_EQ(s.node_of_rank(r), r / 2);
  for (int g = 0; g < s.total_gpus(); ++g) EXPECT_EQ(s.node_of(g), g / 4);
  EXPECT_EQ(s.node_leader(0), 0);
  EXPECT_EQ(s.node_leader(1), 4);
  EXPECT_EQ(s.gpus_per_node(0), 4);
  EXPECT_EQ(s.gpus_per_node(1), 4);
}

TEST(ClusterSpec, NodeHelpersHandlePartialLastNode) {
  // 3 ranks at 2 ranks per node: the second node holds only rank 2.
  ClusterSpec s;
  s.num_ranks = 3;
  s.gpus_per_rank = 2;
  s.ranks_per_node = 2;
  EXPECT_EQ(s.num_nodes(), 2);
  EXPECT_EQ(s.node_of_rank(2), 1);
  EXPECT_EQ(s.node_leader(1), 4);
  EXPECT_EQ(s.gpus_per_node(0), 4);
  EXPECT_EQ(s.gpus_per_node(1), 2);
}

TEST(ClusterSpec, SingleNodeClusterIsOneNvlinkDomain) {
  ClusterSpec s;
  s.num_ranks = 4;
  s.gpus_per_rank = 2;
  s.ranks_per_node = 4;
  EXPECT_EQ(s.num_nodes(), 1);
  for (int g = 0; g < s.total_gpus(); ++g) EXPECT_EQ(s.node_of(g), 0);
  EXPECT_EQ(s.node_leader(0), 0);
  EXPECT_EQ(s.gpus_per_node(0), s.total_gpus());
}

TEST(Cluster, RunsBodyOncePerGpuConcurrently) {
  ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 3;
  Cluster cluster(spec);
  std::atomic<int> count{0};
  std::mutex mu;
  std::set<int> seen;
  cluster.run([&](GpuCoord me, Device& dev) {
    count.fetch_add(1);
    std::lock_guard lock(mu);
    seen.insert(spec.global_gpu(me));
    EXPECT_EQ(dev.id(), spec.global_gpu(me));
  });
  EXPECT_EQ(count.load(), 6);
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Cluster, PropagatesExceptions) {
  Cluster cluster(ClusterSpec{2, 1, 1});
  EXPECT_THROW(cluster.run([](GpuCoord me, Device&) {
                 if (me.rank == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
}

TEST(Cluster, DevicesAreDistinct) {
  Cluster cluster(ClusterSpec{2, 2, 1});
  cluster.device(0).allocate("x", 10);
  EXPECT_EQ(cluster.device(0).allocated_bytes(), 10u);
  EXPECT_EQ(cluster.device(1).allocated_bytes(), 0u);
  EXPECT_EQ(cluster.device(3).id(), 3);
}

TEST(Cluster, GpusCanSynchronizeViaSharedState) {
  // The BFS driver relies on all GPU threads genuinely running concurrently
  // (collectives would deadlock otherwise); verify no serialization.
  ClusterSpec spec{4, 1, 1};
  Cluster cluster(spec);
  std::atomic<int> arrived{0};
  cluster.run([&](GpuCoord, Device&) {
    arrived.fetch_add(1);
    // Busy-wait until every thread arrives; would hang if Cluster::run
    // executed bodies sequentially.
    while (arrived.load() < 4) std::this_thread::yield();
  });
  EXPECT_EQ(arrived.load(), 4);
}

}  // namespace
}  // namespace dsbfs::sim
