#include "graph/distributor.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

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

TEST(RouteEdge, NormalSourceGoesToSourceOwner) {
  const sim::ClusterSpec spec = spec_of(2, 2);
  const std::vector<std::uint32_t> degrees{1, 1, 10, 10};
  // (0 -> 1): both normal, nn at owner of 0.
  EdgeRoute r = route_edge(0, 1, degrees, 5, spec);
  EXPECT_EQ(r.kind, EdgeKind::kNN);
  EXPECT_EQ(r.gpu, spec.owner_global_gpu(0));
  // (0 -> 2): normal to delegate, nd at owner of 0.
  r = route_edge(0, 2, degrees, 5, spec);
  EXPECT_EQ(r.kind, EdgeKind::kND);
  EXPECT_EQ(r.gpu, spec.owner_global_gpu(0));
}

TEST(RouteEdge, DelegateToNormalGoesToDestinationOwner) {
  const sim::ClusterSpec spec = spec_of(2, 2);
  const std::vector<std::uint32_t> degrees{1, 1, 10, 10};
  const EdgeRoute r = route_edge(2, 1, degrees, 5, spec);
  EXPECT_EQ(r.kind, EdgeKind::kDN);
  EXPECT_EQ(r.gpu, spec.owner_global_gpu(1));
}

TEST(RouteEdge, DelegatePairGoesToLowerDegreeOwner) {
  const sim::ClusterSpec spec = spec_of(3, 1);
  const std::vector<std::uint32_t> degrees{1, 8, 10};
  EdgeRoute r = route_edge(1, 2, degrees, 5, spec);
  EXPECT_EQ(r.kind, EdgeKind::kDD);
  EXPECT_EQ(r.gpu, spec.owner_global_gpu(1));  // degree 8 < 10
  r = route_edge(2, 1, degrees, 5, spec);
  EXPECT_EQ(r.gpu, spec.owner_global_gpu(1));  // same owner both directions
}

TEST(RouteEdge, DelegateTieBreaksByMinVertexId) {
  const sim::ClusterSpec spec = spec_of(4, 1);
  const std::vector<std::uint32_t> degrees{0, 9, 0, 9};
  const EdgeRoute a = route_edge(1, 3, degrees, 5, spec);
  const EdgeRoute b = route_edge(3, 1, degrees, 5, spec);
  EXPECT_EQ(a.gpu, spec.owner_global_gpu(1));
  EXPECT_EQ(b.gpu, spec.owner_global_gpu(1));
}

TEST(Distributor, EdgeConservation) {
  const EdgeList g = rmat_graph500({.scale = 10, .seed = 3});
  const auto degrees = out_degrees(g);
  const auto delegates = DelegateInfo::select(degrees, 16);
  const sim::ClusterSpec spec = spec_of(2, 2);
  const DistributedEdges dist = distribute_edges(g, degrees, delegates, spec);
  std::uint64_t placed = 0;
  for (const auto& sets : dist.gpus) placed += sets.total_edges();
  EXPECT_EQ(placed, g.size());
  EXPECT_EQ(dist.enn + dist.end + dist.edn + dist.edd, g.size());
}

TEST(Distributor, NdAndDnCountsEqualOnSymmetricGraphs) {
  // Every nd edge (v -> t) pairs with a dn edge (t -> v); symmetry.
  const EdgeList g = rmat_graph500({.scale = 10, .seed = 4});
  const auto degrees = out_degrees(g);
  const auto delegates = DelegateInfo::select(degrees, 16);
  const DistributedEdges dist =
      distribute_edges(g, degrees, delegates, spec_of(2, 2));
  EXPECT_EQ(dist.end, dist.edn);
}

TEST(Distributor, NonNnSubgraphsAreLocallySymmetric) {
  // The paper's key property: except nn, subgraphs on individual GPUs are
  // symmetric -- the undirected pair lands on one GPU.
  const EdgeList g = rmat_graph500({.scale = 9, .seed = 5});
  const auto degrees = out_degrees(g);
  const auto delegates = DelegateInfo::select(degrees, 8);
  const sim::ClusterSpec spec = spec_of(3, 2);
  const DistributedEdges dist = distribute_edges(g, degrees, delegates, spec);

  for (std::size_t gpu = 0; gpu < dist.gpus.size(); ++gpu) {
    const auto& sets = dist.gpus[gpu];
    // dd pairs within the GPU.
    std::multiset<std::pair<LocalId, LocalId>> dd;
    for (std::size_t i = 0; i < sets.dd_rows.size(); ++i) {
      dd.insert({static_cast<LocalId>(sets.dd_rows[i]), sets.dd_cols[i]});
    }
    for (const auto& [a, b] : dd) {
      EXPECT_GT(dd.count({b, a}), 0u) << "gpu " << gpu;
    }
    // nd (v -> t) must pair with dn (t -> v) on the same GPU.
    std::multiset<std::pair<LocalId, LocalId>> dn;
    for (std::size_t i = 0; i < sets.dn_rows.size(); ++i) {
      dn.insert({static_cast<LocalId>(sets.dn_rows[i]), sets.dn_cols[i]});
    }
    for (std::size_t i = 0; i < sets.nd_rows.size(); ++i) {
      EXPECT_GT(dn.count({sets.nd_cols[i],
                          static_cast<LocalId>(sets.nd_rows[i])}),
                0u)
          << "gpu " << gpu;
    }
    EXPECT_EQ(sets.nd_rows.size(), sets.dn_rows.size());
  }
}

TEST(Distributor, LocalIndicesAreBounded) {
  const EdgeList g = rmat_graph500({.scale = 10, .seed = 6});
  const auto degrees = out_degrees(g);
  const auto delegates = DelegateInfo::select(degrees, 16);
  const sim::ClusterSpec spec = spec_of(2, 2);
  const DistributedEdges dist = distribute_edges(g, degrees, delegates, spec);
  const std::uint64_t local_bound =
      (g.num_vertices + 3) / static_cast<std::uint64_t>(spec.total_gpus());
  const LocalId d = delegates.count();
  for (const auto& sets : dist.gpus) {
    for (const auto r : sets.nn_rows) EXPECT_LE(r, local_bound);
    for (const auto r : sets.nd_rows) EXPECT_LE(r, local_bound);
    for (const auto c : sets.nd_cols) EXPECT_LT(c, d);
    for (const auto r : sets.dn_rows) EXPECT_LT(r, d);
    for (const auto c : sets.dn_cols) EXPECT_LE(c, local_bound);
    for (const auto r : sets.dd_rows) EXPECT_LT(r, d);
    for (const auto c : sets.dd_cols) EXPECT_LT(c, d);
  }
}

TEST(Distributor, WorkloadBalancedOnRmat) {
  // "The number of edges in the partitioned subgraphs on individual GPUs
  // are very close to each other."
  const EdgeList g = rmat_graph500({.scale = 13, .seed = 7});
  const auto degrees = out_degrees(g);
  const auto delegates = DelegateInfo::select(degrees, 32);
  const DistributedEdges dist =
      distribute_edges(g, degrees, delegates, spec_of(4, 2));
  std::uint64_t min_edges = ~0ULL, max_edges = 0;
  for (const auto& sets : dist.gpus) {
    min_edges = std::min(min_edges, sets.total_edges());
    max_edges = std::max(max_edges, sets.total_edges());
  }
  EXPECT_LT(static_cast<double>(max_edges),
            1.25 * static_cast<double>(min_edges));
}

TEST(Distributor, DeterministicOutput) {
  const EdgeList g = rmat_graph500({.scale = 9, .seed = 8});
  const auto degrees = out_degrees(g);
  const auto delegates = DelegateInfo::select(degrees, 8);
  const auto a = distribute_edges(g, degrees, delegates, spec_of(2, 2));
  const auto b = distribute_edges(g, degrees, delegates, spec_of(2, 2));
  for (std::size_t gpu = 0; gpu < a.gpus.size(); ++gpu) {
    EXPECT_EQ(a.gpus[gpu].nn_cols, b.gpus[gpu].nn_cols);
    EXPECT_EQ(a.gpus[gpu].dd_cols, b.gpus[gpu].dd_cols);
  }
}

TEST(Distributor, OutputIndependentOfWorkerCount) {
  // Every staging array must be bit-identical to the one-worker build,
  // whatever the chunking, on weighted and unweighted inputs.
  for (const bool weighted : {false, true}) {
    EdgeList g = rmat_graph500({.scale = 12, .seed = 9});
    if (weighted) assign_uniform_weights(g, 255, 9);
    const auto degrees = out_degrees(g);
    const auto delegates = DelegateInfo::select(degrees, 16);
    const sim::ClusterSpec spec = spec_of(2, 2);
    auto run = [&](std::size_t workers) {
      util::set_parallel_worker_count(workers);
      DistributedEdges d = distribute_edges(g, degrees, delegates, spec);
      util::set_parallel_worker_count(0);
      return d;
    };
    const DistributedEdges ref = run(1);
    ASSERT_GT(ref.edd, 0u);
    ASSERT_GT(ref.enn, 0u);
    for (const std::size_t workers : {2u, 3u, 4u, 7u}) {
      SCOPED_TRACE(testing::Message() << "weighted=" << weighted
                                      << " workers=" << workers);
      const DistributedEdges got = run(workers);
      EXPECT_EQ(got.enn, ref.enn);
      EXPECT_EQ(got.end, ref.end);
      EXPECT_EQ(got.edn, ref.edn);
      EXPECT_EQ(got.edd, ref.edd);
      ASSERT_EQ(got.gpus.size(), ref.gpus.size());
      for (std::size_t gpu = 0; gpu < ref.gpus.size(); ++gpu) {
        const GpuEdgeSets& a = ref.gpus[gpu];
        const GpuEdgeSets& b = got.gpus[gpu];
        EXPECT_EQ(b.weighted, weighted);
        EXPECT_EQ(b.nn_rows, a.nn_rows);
        EXPECT_EQ(b.nn_cols, a.nn_cols);
        EXPECT_EQ(b.nd_rows, a.nd_rows);
        EXPECT_EQ(b.nd_cols, a.nd_cols);
        EXPECT_EQ(b.dn_rows, a.dn_rows);
        EXPECT_EQ(b.dn_cols, a.dn_cols);
        EXPECT_EQ(b.dd_rows, a.dd_rows);
        EXPECT_EQ(b.dd_cols, a.dd_cols);
        EXPECT_EQ(b.nn_weights, a.nn_weights);
        EXPECT_EQ(b.nd_weights, a.nd_weights);
        EXPECT_EQ(b.dn_weights, a.dn_weights);
        EXPECT_EQ(b.dd_weights, a.dd_weights);
        EXPECT_EQ(b.nn_weights.empty(), !weighted);
      }
    }
  }
}

TEST(Distributor, PaperFigure2Example) {
  // Fig. 2's graph distributed over 3 partitions with TH = 5: delegates are
  // 7 -> 0 and 8 -> 1; all edges incident to a delegate stay local to the
  // normal endpoint's partition.
  EdgeList g;
  g.num_vertices = 11;
  for (const VertexId v : {0, 1, 2, 3, 4, 5}) g.add(7, v);
  for (const VertexId v : {4, 5, 6, 9, 10, 3}) g.add(8, v);
  g.add(0, 1);
  const EdgeList s = make_symmetric(g);
  const auto degrees = out_degrees(s);
  const auto delegates = DelegateInfo::select(degrees, 5);
  const sim::ClusterSpec spec = spec_of(3, 1);
  const DistributedEdges dist = distribute_edges(s, degrees, delegates, spec);

  // Every dn edge's destination is owned by the GPU it landed on.
  for (int gpu = 0; gpu < 3; ++gpu) {
    const auto& sets = dist.gpus[static_cast<std::size_t>(gpu)];
    for (std::size_t i = 0; i < sets.dn_cols.size(); ++i) {
      // Column is a local normal index of this GPU by construction -- that
      // is exactly the claim being tested: reconstruct the global id.
      const VertexId global = spec.global_vertex(
          spec.coord_of(gpu).rank, spec.coord_of(gpu).gpu, sets.dn_cols[i]);
      EXPECT_EQ(spec.owner_global_gpu(global), gpu);
    }
  }
  // No nn edge involves vertices 7 or 8 (they are delegates).
  EXPECT_EQ(dist.edd, 0u);  // 7 and 8 are not adjacent in this graph
  EXPECT_EQ(dist.enn, 2u);  // only 0<->1
}

}  // namespace
}  // namespace dsbfs::graph
