#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "baseline/host_apps.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "util/hash.hpp"

namespace dsbfs::graph {
namespace {

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

/// Unordered-pair -> weight map of a weighted edge list (the ground truth
/// every distributed copy of an edge must agree with).
std::map<std::pair<VertexId, VertexId>, std::uint32_t> pair_weights(
    const EdgeList& g) {
  std::map<std::pair<VertexId, VertexId>, std::uint32_t> out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const VertexId a = std::min(g.src[i], g.dst[i]);
    const VertexId b = std::max(g.src[i], g.dst[i]);
    const auto [it, inserted] = out.emplace(std::make_pair(a, b), g.weights[i]);
    EXPECT_EQ(it->second, g.weights[i])
        << "edge list weight inconsistent for pair " << a << "," << b;
  }
  return out;
}

TEST(WeightedEdgeList, AddWeightedAndStorageBytes) {
  EdgeList g;
  g.num_vertices = 4;
  EXPECT_FALSE(g.weighted());
  g.add_weighted(0, 1, 7);
  g.add_weighted(1, 2, 3);
  EXPECT_TRUE(g.weighted());
  EXPECT_EQ(g.weights.size(), g.size());
  EXPECT_EQ(g.storage_bytes(), 2u * 16 + 2u * 4);
}

TEST(WeightedEdgeList, MakeSymmetricMirrorsWeights) {
  EdgeList g;
  g.num_vertices = 5;
  g.add_weighted(0, 1, 9);
  g.add_weighted(2, 3, 4);
  const EdgeList s = make_symmetric(g);
  ASSERT_EQ(s.size(), 4u);
  ASSERT_TRUE(s.weighted());
  // Forward copies then mirrored copies, weights preserved on both.
  EXPECT_EQ(s.weights[0], 9u);
  EXPECT_EQ(s.weights[1], 4u);
  EXPECT_EQ(s.weights[2], 9u);
  EXPECT_EQ(s.weights[3], 4u);
  EXPECT_EQ(s.src[2], 1u);
  EXPECT_EQ(s.dst[2], 0u);
}

TEST(WeightedEdgeList, MakeSymmetricRejectsMixedAddCalls) {
  EdgeList g;
  g.num_vertices = 3;
  g.add_weighted(0, 1, 5);
  g.add(1, 2);  // mixing styles: one weight for two edges
  EXPECT_THROW(make_symmetric(g), std::invalid_argument);
}

TEST(WeightedSerialSssp, RejectsMismatchedWeightSpan) {
  const WeightedHostCsr plain = build_weighted_host_csr(path_graph(5));
  ASSERT_TRUE(plain.weights.empty());
  EXPECT_THROW(baseline::serial_sssp(
                   plain.csr, std::span<const std::uint32_t>(plain.weights), 0),
               std::invalid_argument);
}

TEST(WeightedEdgeList, AssignUniformWeightsIsPairConsistentAndInRange) {
  EdgeList g = rmat_graph500({.scale = 8, .seed = 11});
  assign_uniform_weights(g, 12, 5);
  ASSERT_EQ(g.weights.size(), g.size());
  for (const std::uint32_t w : g.weights) {
    EXPECT_GE(w, 1u);
    EXPECT_LE(w, 12u);
  }
  // Symmetric doubles and parallel edges must agree (checked inside).
  const auto map = pair_weights(g);
  EXPECT_FALSE(map.empty());
  // A different seed decorrelates from the hashed fallback.
  EdgeList g2 = rmat_graph500({.scale = 8, .seed = 11});
  assign_uniform_weights(g2, 12, 6);
  EXPECT_NE(g.weights, g2.weights);
  EXPECT_THROW(assign_uniform_weights(g, 0, 1), std::invalid_argument);
}

TEST(WeightedHostCsrTest, WeightsFollowEdgesThroughTheCountingSort) {
  EdgeList g = erdos_renyi(64, 400, 3);
  assign_uniform_weights(g, 9, 17);
  const auto map = pair_weights(g);
  const WeightedHostCsr host = build_weighted_host_csr(g);
  ASSERT_EQ(host.weights.size(), host.csr.num_edges());
  for (VertexId u = 0; u < host.csr.num_rows(); ++u) {
    for (std::uint64_t e = host.csr.row_begin(u); e < host.csr.row_end(u);
         ++e) {
      const VertexId v = host.csr.col(e);
      const auto key = std::make_pair(std::min(u, v), std::max(u, v));
      ASSERT_EQ(host.weights[e], map.at(key)) << "edge " << u << "->" << v;
    }
  }
  // Unweighted input degrades to an empty weight array.
  const WeightedHostCsr plain = build_weighted_host_csr(erdos_renyi(16, 40, 4));
  EXPECT_TRUE(plain.weights.empty());
  EXPECT_EQ(plain.csr.num_edges(), 80u);
}

TEST(WeightedSerialSssp, PathDistancesAreStoredWeightPrefixSums) {
  EdgeList g = path_graph(10);
  assign_uniform_weights(g, 31, 2);
  const WeightedHostCsr host = build_weighted_host_csr(g);
  const auto dist = baseline::serial_sssp(
      host.csr, std::span<const std::uint32_t>(host.weights), 0);
  const auto map = pair_weights(g);
  std::uint64_t acc = 0;
  EXPECT_EQ(dist[0], 0u);
  for (VertexId v = 1; v < 10; ++v) {
    acc += map.at({v - 1, v});
    EXPECT_EQ(dist[v], acc) << v;
  }
}

/// The distributor round-trip: every local edge of every GPU's every
/// subgraph must carry the weight of its original endpoint pair -- normal
/// edges land on the owning rank with their weight, and every replica-side
/// view of a delegate edge (nd on the normal's owner, dn/dd wherever
/// Algorithm 1 routed it) sees the consistent pair weight.
TEST(WeightedDistribution, WeightsLandOnTheOwningGpuForEverySubgraph) {
  EdgeList g = rmat_graph500({.scale = 8, .seed = 23});
  assign_uniform_weights(g, 15, 9);
  const auto map = pair_weights(g);
  const auto spec = spec_of(2, 2);
  const DistributedGraph dg = build_distributed(g, spec, 16);
  ASSERT_TRUE(dg.weighted());
  const DelegateInfo& delegates = dg.delegates();

  std::uint64_t checked = 0;
  for (int gi = 0; gi < spec.total_gpus(); ++gi) {
    const LocalGraph& lg = dg.local(gi);
    ASSERT_TRUE(lg.weighted());
    const sim::GpuCoord me = spec.coord_of(gi);
    const auto global_of = [&](LocalId v) {
      return spec.global_vertex(me.rank, me.gpu, v);
    };
    const auto expect_weight = [&](VertexId u, VertexId v, std::uint32_t w) {
      const auto key = std::make_pair(std::min(u, v), std::max(u, v));
      ASSERT_EQ(w, map.at(key)) << "gpu " << gi << " edge " << u << "->" << v;
      ++checked;
    };

    ASSERT_EQ(lg.nn_weights().size(), lg.nn().num_edges());
    ASSERT_EQ(lg.nd_weights().size(), lg.nd().num_edges());
    ASSERT_EQ(lg.dn_weights().size(), lg.dn().num_edges());
    ASSERT_EQ(lg.dd_weights().size(), lg.dd().num_edges());
    EXPECT_EQ(lg.memory_usage().weight_bytes,
              4 * (lg.nn().num_edges() + lg.nd().num_edges() +
                   lg.dn().num_edges() + lg.dd().num_edges()));

    for (std::uint64_t v = 0; v < lg.num_local_normals(); ++v) {
      for (std::uint64_t e = lg.nn().row_begin(v); e < lg.nn().row_end(v); ++e) {
        expect_weight(global_of(static_cast<LocalId>(v)),
                      lg.ghosts().global(lg.nn().col(e)), lg.nn_weights()[e]);
      }
      for (std::uint64_t e = lg.nd().row_begin(v); e < lg.nd().row_end(v); ++e) {
        expect_weight(global_of(static_cast<LocalId>(v)),
                      delegates.vertex_of(lg.nd().col(e)), lg.nd_weights()[e]);
      }
    }
    for (LocalId t = 0; t < dg.num_delegates(); ++t) {
      for (std::uint64_t e = lg.dn().row_begin(t); e < lg.dn().row_end(t); ++e) {
        expect_weight(delegates.vertex_of(t), global_of(lg.dn().col(e)),
                      lg.dn_weights()[e]);
      }
      for (std::uint64_t e = lg.dd().row_begin(t); e < lg.dd().row_end(t); ++e) {
        expect_weight(delegates.vertex_of(t), delegates.vertex_of(lg.dd().col(e)),
                      lg.dd_weights()[e]);
      }
    }
  }
  // Every directed edge went to exactly one GPU and was checked there.
  EXPECT_EQ(checked, g.size());
}

TEST(WeightedDistribution, UnweightedGraphsStayWeightFree) {
  const EdgeList g = rmat_graph500({.scale = 7, .seed = 2});
  const auto spec = spec_of(2, 1);
  const DistributedGraph dg = build_distributed(g, spec, 8);
  EXPECT_FALSE(dg.weighted());
  for (int gi = 0; gi < spec.total_gpus(); ++gi) {
    EXPECT_FALSE(dg.local(gi).weighted());
    EXPECT_TRUE(dg.local(gi).nn_weights().empty());
    EXPECT_EQ(dg.local(gi).memory_usage().weight_bytes, 0u);
  }
}

TEST(WeightedDistribution, RejectsMismatchedWeightArray) {
  EdgeList g = path_graph(8);
  g.weights.assign(3, 1);  // wrong length: not one weight per directed edge
  EXPECT_THROW(build_distributed(g, spec_of(2, 1), 4), std::invalid_argument);
}

}  // namespace
}  // namespace dsbfs::graph
