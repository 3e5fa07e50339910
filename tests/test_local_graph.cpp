#include "graph/local_graph.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace dsbfs::graph {
namespace {

TEST(LocalNormalCount, PartitionsExactly) {
  sim::ClusterSpec spec;
  spec.num_ranks = 3;
  spec.gpus_per_rank = 2;
  const VertexId n = 1001;  // deliberately not divisible by 6
  std::uint64_t total = 0;
  for (int g = 0; g < spec.total_gpus(); ++g) {
    total += local_normal_count(spec, spec.coord_of(g), n);
  }
  EXPECT_EQ(total, n);
}

TEST(LocalNormalCount, MatchesOwnershipEnumeration) {
  sim::ClusterSpec spec;
  spec.num_ranks = 4;
  spec.gpus_per_rank = 2;
  const VertexId n = 333;
  std::vector<std::uint64_t> counted(static_cast<std::size_t>(spec.total_gpus()));
  for (VertexId v = 0; v < n; ++v) {
    ++counted[static_cast<std::size_t>(spec.owner_global_gpu(v))];
  }
  for (int g = 0; g < spec.total_gpus(); ++g) {
    EXPECT_EQ(local_normal_count(spec, spec.coord_of(g), n),
              counted[static_cast<std::size_t>(g)])
        << "gpu " << g;
  }
}

TEST(LocalNormalCount, TinyGraphSomeGpusEmpty) {
  sim::ClusterSpec spec;
  spec.num_ranks = 8;
  spec.gpus_per_rank = 1;
  std::uint64_t total = 0;
  for (int g = 0; g < 8; ++g) {
    total += local_normal_count(spec, spec.coord_of(g), 3);
  }
  EXPECT_EQ(total, 3u);
}

class LocalGraphFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.num_ranks = 2;
    spec_.gpus_per_rank = 2;
    graph_ = rmat_graph500({.scale = 10, .seed = 11});
    built_ = build_distributed(graph_, spec_, /*threshold=*/16);
  }
  sim::ClusterSpec spec_;
  EdgeList graph_;
  DistributedGraph built_;
};

TEST_F(LocalGraphFixture, SubgraphRowCountsMatchSpec) {
  for (int g = 0; g < spec_.total_gpus(); ++g) {
    const LocalGraph& lg = built_.local(g);
    EXPECT_EQ(lg.nn().num_rows(), lg.num_local_normals());
    EXPECT_EQ(lg.nd().num_rows(), lg.num_local_normals());
    EXPECT_EQ(lg.dn().num_rows(), lg.num_delegates());
    EXPECT_EQ(lg.dd().num_rows(), lg.num_delegates());
    EXPECT_EQ(lg.num_delegates(), built_.num_delegates());
  }
}

TEST_F(LocalGraphFixture, SourceListMatchesNdRows) {
  for (int g = 0; g < spec_.total_gpus(); ++g) {
    const LocalGraph& lg = built_.local(g);
    std::uint64_t with_nd = 0;
    for (std::uint64_t v = 0; v < lg.num_local_normals(); ++v) {
      if (lg.nd().row_length(v) > 0) {
        ++with_nd;
        EXPECT_TRUE(lg.nd_source_mask().test(v));
      } else {
        EXPECT_FALSE(lg.nd_source_mask().test(v));
      }
    }
    EXPECT_EQ(lg.nd_source_list().size(), with_nd);
    EXPECT_EQ(lg.nd_source_count(), with_nd);
  }
}

TEST_F(LocalGraphFixture, SourceMasksMatchDdDnRows) {
  for (int g = 0; g < spec_.total_gpus(); ++g) {
    const LocalGraph& lg = built_.local(g);
    std::uint64_t dd_sources = 0, dn_sources = 0;
    for (LocalId t = 0; t < lg.num_delegates(); ++t) {
      EXPECT_EQ(lg.dd_source_mask().test(t), lg.dd().row_length(t) > 0);
      EXPECT_EQ(lg.dn_source_mask().test(t), lg.dn().row_length(t) > 0);
      dd_sources += lg.dd().row_length(t) > 0 ? 1 : 0;
      dn_sources += lg.dn().row_length(t) > 0 ? 1 : 0;
    }
    EXPECT_EQ(lg.dd_source_count(), dd_sources);
    EXPECT_EQ(lg.dn_source_count(), dn_sources);
  }
}

TEST_F(LocalGraphFixture, MemoryUsageMatchesCsrFootprints) {
  for (int g = 0; g < spec_.total_gpus(); ++g) {
    const LocalGraph& lg = built_.local(g);
    const MemoryUsage m = lg.memory_usage();
    EXPECT_EQ(m.nn_bytes, lg.nn().storage_bytes());
    EXPECT_EQ(m.dd_bytes, lg.dd().storage_bytes());
    EXPECT_GT(m.aux_bytes, 0u);
    EXPECT_EQ(m.total_bytes(), m.subgraph_bytes() + m.aux_bytes);
  }
}

TEST_F(LocalGraphFixture, RegisterOnDeviceAccountsBytes) {
  sim::Device device(0, sim::DeviceMemoryConfig{});
  const LocalGraph& lg = built_.local(0);
  lg.register_on(device);
  EXPECT_EQ(device.allocated_bytes(), lg.memory_usage().total_bytes());
  EXPECT_EQ(device.allocations().size(), 6u);
}

TEST(LocalGraph, GhostTableMapsBackToTargets) {
  // Every nn column is a ghost id that maps back to the edge's original
  // global target, and the table's owner ranges are 64-aligned, one owner
  // each, ascending, with each range's ghosts ascending by local id.
  const EdgeList g = rmat_graph500({.scale = 11, .seed = 17});
  const auto spec_of = [](int ranks, int gpus, int ranks_per_node) {
    sim::ClusterSpec s;
    s.num_ranks = ranks;
    s.gpus_per_rank = gpus;
    s.ranks_per_node = ranks_per_node;
    return s;
  };
  // 1x1x1, 2x1x1, 2x2x2, and three ranks on two-rank nodes (a partial
  // last node, and p not a power of two).
  for (const sim::ClusterSpec& spec :
       {spec_of(1, 1, 1), spec_of(2, 1, 1), spec_of(4, 2, 2),
        spec_of(3, 1, 2)}) {
    SCOPED_TRACE(spec.to_string());
    const DistributedGraph dg = build_distributed(g, spec, 16);
    // The distributor's staging columns, in edge order within each row
    // (the CSR's counting sort keeps that order).
    DistributedEdges staged =
        distribute_edges(g, dg.degrees(), dg.delegates(), spec);
    const int p = spec.total_gpus();
    for (int gi = 0; gi < p; ++gi) {
      SCOPED_TRACE(gi);
      const LocalGraph& lg = dg.local(gi);
      const GhostTable& ghosts = lg.ghosts();
      const GpuEdgeSets& e = staged.gpus[static_cast<std::size_t>(gi)];
      const LocalCsrU64 targets = LocalCsrU64::from_edges(
          lg.num_local_normals(), e.nn_cols, e.nn_rows);
      ASSERT_EQ(lg.nn().num_edges(), targets.num_edges());
      ASSERT_EQ(lg.nn().offsets(), targets.offsets());
      std::set<VertexId> distinct;
      for (std::uint64_t i = 0; i < targets.num_edges(); ++i) {
        const LocalId ghost = lg.nn().col(i);
        const VertexId target = targets.col(i);
        ASSERT_LT(ghost, ghosts.slots());
        EXPECT_EQ(ghosts.global(ghost), target);
        EXPECT_EQ(ghosts.owner(ghost), spec.owner_global_gpu(target));
        EXPECT_EQ(ghosts.local(ghost), spec.local_index(target));
        distinct.insert(target);
      }
      EXPECT_EQ(ghosts.count(), distinct.size());

      ASSERT_EQ(ghosts.num_owners(), p);
      EXPECT_EQ(ghosts.begin(0), 0u);
      EXPECT_EQ(ghosts.end(p - 1), ghosts.slots());
      std::uint64_t real = 0;
      for (int o = 0; o < p; ++o) {
        SCOPED_TRACE(o);
        EXPECT_EQ(ghosts.begin(o) % 64, 0u);
        EXPECT_LE(ghosts.begin(o), ghosts.end(o));
        if (o > 0) EXPECT_EQ(ghosts.begin(o), ghosts.end(o - 1));
        LocalId slot = ghosts.begin(o);
        for (; slot < ghosts.end(o) && ghosts.local(slot) != kInvalidLocal;
             ++slot) {
          EXPECT_EQ(ghosts.owner(slot), o);
          if (slot > ghosts.begin(o)) {
            EXPECT_LT(ghosts.local(slot - 1), ghosts.local(slot));
          }
          ++real;
        }
        // Padding only up to the next multiple of 64.
        EXPECT_EQ(ghosts.end(o) - slot, (64 - slot % 64) % 64);
        for (; slot < ghosts.end(o); ++slot) {
          EXPECT_EQ(ghosts.local(slot), kInvalidLocal);
        }
      }
      EXPECT_EQ(real, ghosts.count());
      EXPECT_EQ(lg.memory_usage().ghost_bytes,
                (p + 1 + ghosts.slots()) * sizeof(LocalId));
    }
  }
}

TEST(LocalGraph, Rejects33BitLocalSpace) {
  // n/p must fit in 32 bits; a fake spec with 1 GPU and >2^32 vertices must
  // be rejected.  (Constructed directly; allocating such a graph for real
  // would need >32 GB.)
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 1;
  GpuEdgeSets empty;
  EXPECT_THROW(LocalGraph(spec, sim::GpuCoord{0, 0}, (1ULL << 32) + 2, 0,
                          std::move(empty)),
               std::invalid_argument);
}

}  // namespace
}  // namespace dsbfs::graph
