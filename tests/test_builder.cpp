#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "util/parallel.hpp"

namespace dsbfs::graph {
namespace {

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

TEST(Builder, BasicInvariants) {
  const EdgeList g = rmat_graph500({.scale = 11, .seed = 2});
  const DistributedGraph dg = build_distributed(g, spec_of(2, 2), 32);
  EXPECT_EQ(dg.num_vertices(), g.num_vertices);
  EXPECT_EQ(dg.num_edges(), g.size());
  EXPECT_EQ(dg.threshold(), 32u);
  EXPECT_EQ(dg.num_locals(), 4u);
  EXPECT_EQ(dg.enn() + dg.end() + dg.edn() + dg.edd(), g.size());
  // Edges preserved across all local CSRs.
  std::uint64_t stored = 0;
  for (int gpu = 0; gpu < 4; ++gpu) {
    const LocalGraph& lg = dg.local(gpu);
    stored += lg.nn().num_edges() + lg.nd().num_edges() + lg.dn().num_edges() +
              lg.dd().num_edges();
  }
  EXPECT_EQ(stored, g.size());
}

TEST(Builder, Table1FormulaMatchesActualStorage) {
  // Table I: total = 8n + 8dp + 4m + 4|Enn| bytes, the extra 4|Enn| paying
  // for 8-byte global nn columns.  Ours are 4-byte ghost ids plus a ghost
  // table per GPU, so the exact form is 8n + 8dp + 4m + the ghost tables.
  // Our CSRs have one extra offset entry per subgraph per GPU (the +1
  // sentinel), a negligible difference the test bounds tightly; the
  // paper's form has no sentinels, so they are left out of the comparison
  // with it.
  const EdgeList g = rmat_graph500({.scale = 12, .seed = 3});
  const DistributedGraph dg = build_distributed(g, spec_of(2, 2), 32);
  const std::uint64_t actual = dg.total_subgraph_bytes();
  const std::uint64_t paper = dg.table1_predicted_bytes();
  std::uint64_t ghost_tables = 0;
  for (int gpu = 0; gpu < 4; ++gpu) {
    ghost_tables += dg.local(gpu).memory_usage().ghost_bytes;
  }
  EXPECT_GT(ghost_tables, 0u);
  const std::uint64_t exact = paper - 4 * dg.enn() + ghost_tables;
  const std::uint64_t sentinel_slack = 16 * 4 * 4;  // 4 subgraphs x 4 GPUs
  EXPECT_LE(actual, exact + sentinel_slack);
  EXPECT_GE(actual, exact);
  const std::uint64_t sentinels = 4 * 4 * sizeof(std::uint32_t);
  EXPECT_LT(actual - sentinels, paper);
}

TEST(Builder, MemoryBeatsEdgeListAtSuitableThreshold) {
  // Section III-C: about one third of the 16m-byte edge list.
  const EdgeList g = rmat_graph500({.scale = 14, .seed = 4});
  const sim::ClusterSpec spec = spec_of(2, 2);
  const std::uint32_t th = 24;  // suitable range for this scale
  const DistributedGraph dg = build_distributed(g, spec, th);
  const double ratio = static_cast<double>(dg.total_subgraph_bytes()) /
                       static_cast<double>(g.storage_bytes());
  EXPECT_LT(ratio, 0.5);
  // And a little more than half of plain CSR (8n + 8m).
  const double vs_csr =
      static_cast<double>(dg.total_subgraph_bytes()) /
      static_cast<double>(8 * g.num_vertices + 8 * g.size());
  EXPECT_LT(vs_csr, 0.85);
}

TEST(Builder, RegistersOnCluster) {
  const EdgeList g = rmat_graph500({.scale = 10, .seed = 5});
  const sim::ClusterSpec spec = spec_of(1, 2);
  sim::Cluster cluster(spec);
  const DistributedGraph dg = build_distributed(g, spec, 16, &cluster);
  for (int gpu = 0; gpu < 2; ++gpu) {
    EXPECT_EQ(cluster.device(gpu).allocated_bytes(),
              dg.local(gpu).memory_usage().total_bytes());
  }
}

TEST(Builder, SingleGpuDegenerateCase) {
  const EdgeList g = path_graph(50);
  const DistributedGraph dg = build_distributed(g, spec_of(1, 1), 4);
  EXPECT_EQ(dg.num_locals(), 1u);
  EXPECT_EQ(dg.local(0).num_local_normals(), 50u);
  EXPECT_EQ(dg.enn(), g.size());  // path has max degree 2 < TH: all nn
  EXPECT_EQ(dg.num_delegates(), 0u);
}

TEST(Builder, ZeroThresholdMakesEverythingDelegate) {
  const EdgeList g = cycle_graph(32);
  const DistributedGraph dg = build_distributed(g, spec_of(2, 1), 0);
  EXPECT_EQ(dg.num_delegates(), 32u);
  EXPECT_EQ(dg.enn(), 0u);
  EXPECT_EQ(dg.end(), 0u);
  EXPECT_EQ(dg.edd(), g.size());
}

TEST(Builder, DegreesExposed) {
  const EdgeList g = star_graph(16);
  const DistributedGraph dg = build_distributed(g, spec_of(2, 1), 4);
  EXPECT_EQ(dg.degrees()[0], 15u);
  EXPECT_EQ(dg.degrees()[5], 1u);
  EXPECT_EQ(dg.num_delegates(), 1u);
  EXPECT_TRUE(dg.delegates().is_delegate(0));
}

template <typename Csr>
void expect_same_csr(const Csr& a, const Csr& b) {
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.cols(), b.cols());
}

void expect_same_mask(const util::LaneBitset& a,
                      const util::LaneBitset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.test(i), b.test(i)) << "bit " << i;
  }
}

TEST(Builder, LocalGraphsIndependentOfWorkerCount) {
  // Per-GPU builds run as concurrent tasks; every CSR, weight array and
  // source mask must match the one-worker build bit for bit.
  for (const bool weighted : {false, true}) {
    EdgeList g = rmat_graph500({.scale = 12, .seed = 6});
    if (weighted) assign_uniform_weights(g, 255, 6);
    auto run = [&](std::size_t workers) {
      util::set_parallel_worker_count(workers);
      DistributedGraph dg = build_distributed(g, spec_of(2, 2), 16);
      util::set_parallel_worker_count(0);
      return dg;
    };
    const DistributedGraph ref = run(1);
    ASSERT_GT(ref.edd(), 0u);
    for (const std::size_t workers : {2u, 3u, 4u, 7u}) {
      SCOPED_TRACE(testing::Message() << "weighted=" << weighted
                                      << " workers=" << workers);
      const DistributedGraph got = run(workers);
      EXPECT_EQ(got.enn(), ref.enn());
      EXPECT_EQ(got.end(), ref.end());
      EXPECT_EQ(got.edn(), ref.edn());
      EXPECT_EQ(got.edd(), ref.edd());
      ASSERT_EQ(got.num_locals(), ref.num_locals());
      for (int gpu = 0; gpu < static_cast<int>(ref.num_locals()); ++gpu) {
        const LocalGraph& a = ref.local(gpu);
        const LocalGraph& b = got.local(gpu);
        expect_same_csr(a.nn(), b.nn());
        EXPECT_EQ(a.ghosts().offsets(), b.ghosts().offsets());
        EXPECT_EQ(a.ghosts().locals(), b.ghosts().locals());
        expect_same_csr(a.nd(), b.nd());
        expect_same_csr(a.dn(), b.dn());
        expect_same_csr(a.dd(), b.dd());
        EXPECT_EQ(b.weighted(), weighted);
        EXPECT_EQ(a.nn_weights(), b.nn_weights());
        EXPECT_EQ(a.nd_weights(), b.nd_weights());
        EXPECT_EQ(a.dn_weights(), b.dn_weights());
        EXPECT_EQ(a.dd_weights(), b.dd_weights());
        EXPECT_EQ(a.nd_source_list(), b.nd_source_list());
        expect_same_mask(a.nd_source_mask(), b.nd_source_mask());
        expect_same_mask(a.dd_source_mask(), b.dd_source_mask());
        expect_same_mask(a.dn_source_mask(), b.dn_source_mask());
      }
    }
  }
}

}  // namespace
}  // namespace dsbfs::graph
