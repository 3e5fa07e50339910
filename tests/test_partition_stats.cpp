#include "graph/partition_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "graph/degree.hpp"
#include "graph/distributor.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace dsbfs::graph {
namespace {

/// Brute-force edge classification for cross-checking the sweeper.
PartitionStats brute_force(const EdgeList& g, std::uint32_t th) {
  const auto degrees = out_degrees(g);
  PartitionStats s;
  s.threshold = th;
  s.num_vertices = g.num_vertices;
  s.num_edges = g.size();
  for (const auto d : degrees) {
    if (d > th) ++s.delegates;
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    const bool ud = degrees[g.src[i]] > th;
    const bool vd = degrees[g.dst[i]] > th;
    if (ud && vd) {
      ++s.dd_edges;
    } else if (!ud && !vd) {
      ++s.nn_edges;
    } else {
      ++s.dn_nd_edges;
    }
  }
  return s;
}

TEST(PartitionStats, SweeperMatchesBruteForce) {
  const EdgeList g = rmat_graph500({.scale = 11, .seed = 21});
  const PartitionStatsSweeper sweeper(g);
  for (const std::uint32_t th : {0u, 1u, 4u, 16u, 64u, 256u, 1u << 20}) {
    const PartitionStats fast = sweeper.at(th);
    const PartitionStats slow = brute_force(g, th);
    EXPECT_EQ(fast.delegates, slow.delegates) << "th=" << th;
    EXPECT_EQ(fast.dd_edges, slow.dd_edges) << "th=" << th;
    EXPECT_EQ(fast.nn_edges, slow.nn_edges) << "th=" << th;
    EXPECT_EQ(fast.dn_nd_edges, slow.dn_nd_edges) << "th=" << th;
  }
}

void expect_matches_brute_force(const EdgeList& g, std::uint32_t th) {
  const PartitionStats fast = PartitionStatsSweeper(g).at(th);
  const PartitionStats slow = brute_force(g, th);
  EXPECT_EQ(fast.threshold, th);
  EXPECT_EQ(fast.num_vertices, slow.num_vertices) << "th=" << th;
  EXPECT_EQ(fast.num_edges, slow.num_edges) << "th=" << th;
  EXPECT_EQ(fast.delegates, slow.delegates) << "th=" << th;
  EXPECT_EQ(fast.dd_edges, slow.dd_edges) << "th=" << th;
  EXPECT_EQ(fast.nn_edges, slow.nn_edges) << "th=" << th;
  EXPECT_EQ(fast.dn_nd_edges, slow.dn_nd_edges) << "th=" << th;
}

/// Thresholds around the histogram's edge: 0, 1, max degree - 1, max
/// degree, max degree + 1 and UINT32_MAX.
std::vector<std::uint32_t> edge_thresholds(const EdgeList& g) {
  const auto degrees = out_degrees(g);
  const std::uint32_t dmax =
      degrees.empty() ? 0 : *std::max_element(degrees.begin(), degrees.end());
  std::vector<std::uint32_t> ths{0, 1, dmax, dmax + 1,
                                 std::numeric_limits<std::uint32_t>::max()};
  if (dmax > 0) ths.push_back(dmax - 1);
  return ths;
}

TEST(PartitionStats, SweeperMatchesBruteForceOnStar) {
  // Hub degree n - 1, every leaf degree 1: at th = 1 the hub alone is a
  // delegate and every edge is dn/nd.
  const EdgeList g = star_graph(100);
  for (const std::uint32_t th : edge_thresholds(g)) {
    expect_matches_brute_force(g, th);
  }
  const PartitionStats s = PartitionStatsSweeper(g).at(1);
  EXPECT_EQ(s.delegates, 1u);
  EXPECT_EQ(s.dn_nd_edges, g.size());
}

TEST(PartitionStats, SweeperHandlesEmptyEdgeList) {
  for (const std::uint64_t n : {0u, 7u}) {
    EdgeList g;
    g.num_vertices = n;
    const PartitionStatsSweeper sweeper(g);
    EXPECT_EQ(sweeper.num_edges(), 0u);
    for (const std::uint32_t th : edge_thresholds(g)) {
      expect_matches_brute_force(g, th);
    }
    // Every vertex has degree 0, so only th = 0 is below it: no delegates.
    EXPECT_EQ(sweeper.at(0).delegates, 0u);
  }
}

TEST(PartitionStats, SweeperMatchesBruteForceWithIsolatedVertices) {
  EdgeList g = rmat_graph500({.scale = 9, .seed = 29});
  g.num_vertices += 50;  // trailing degree-0 vertices
  ASSERT_GE(count_zero_degree(out_degrees(g)), 50u);
  for (const std::uint32_t th : edge_thresholds(g)) {
    expect_matches_brute_force(g, th);
  }
  for (std::uint32_t th = 0; th < 40; ++th) expect_matches_brute_force(g, th);
}

TEST(PartitionStats, MonotoneInThreshold) {
  // Raising TH can only demote delegates: delegates and dd fall, nn rises.
  const EdgeList g = rmat_graph500({.scale = 12, .seed = 22});
  const PartitionStatsSweeper sweeper(g);
  PartitionStats prev = sweeper.at(1);
  for (std::uint32_t th = 2; th <= 1024; th *= 2) {
    const PartitionStats cur = sweeper.at(th);
    EXPECT_LE(cur.delegates, prev.delegates);
    EXPECT_LE(cur.dd_edges, prev.dd_edges);
    EXPECT_GE(cur.nn_edges, prev.nn_edges);
    prev = cur;
  }
}

TEST(PartitionStats, PercentagesSumToHundred) {
  const EdgeList g = rmat_graph500({.scale = 10, .seed = 23});
  const PartitionStatsSweeper sweeper(g);
  const PartitionStats s = sweeper.at(32);
  EXPECT_NEAR(s.dd_pct() + s.dn_nd_pct() + s.nn_pct(), 100.0, 1e-9);
}

TEST(PartitionStats, ExtremesCoverAllEdges) {
  const EdgeList g = rmat_graph500({.scale = 10, .seed = 24});
  const PartitionStatsSweeper sweeper(g);
  // TH = 0: every vertex with any out-edge is a delegate; nn edges need two
  // zero-degree endpoints, impossible for a source with an edge -> all dd.
  const PartitionStats low = sweeper.at(0);
  EXPECT_EQ(low.nn_edges, 0u);
  EXPECT_EQ(low.dd_edges, low.num_edges);
  // TH = max: no delegates, all nn.
  const PartitionStats high = sweeper.at(1u << 30);
  EXPECT_EQ(high.delegates, 0u);
  EXPECT_EQ(high.nn_edges, high.num_edges);
}

TEST(PartitionStats, RmatFigure5Shape) {
  // Fig. 5's qualitative claim: a threshold exists where delegates are a
  // small vertex fraction while nn edges stay a small edge fraction -- the
  // regime the whole design relies on.  Use the policy-chosen TH.
  const EdgeList g = rmat_graph500({.scale = 14, .seed = 25});
  const PartitionStatsSweeper sweeper(g);
  const int p = 16;
  const std::uint32_t th = suggest_threshold(sweeper, p);
  const PartitionStats s = sweeper.at(th);
  EXPECT_LE(static_cast<double>(s.delegates),
            4.0 * static_cast<double>(g.num_vertices) / p);
  EXPECT_LT(s.nn_pct(), 35.0);
  EXPECT_GT(s.dd_pct() + s.dn_nd_pct(), 65.0);
  // And the dd share shrinks monotonically across the sweep while nn grows
  // (the crossing structure of Fig. 5).
  EXPECT_GT(sweeper.at(4).dd_pct(), sweeper.at(256).dd_pct());
  EXPECT_LT(sweeper.at(4).nn_pct(), sweeper.at(256).nn_pct());
}

TEST(SuggestThreshold, RespectsDelegateCap) {
  const EdgeList g = rmat_graph500({.scale = 12, .seed = 26});
  const PartitionStatsSweeper sweeper(g);
  for (const int p : {4, 16, 64}) {
    const std::uint32_t th = suggest_threshold(sweeper, p);
    const PartitionStats s = sweeper.at(th);
    EXPECT_LE(static_cast<double>(s.delegates),
              4.0 * static_cast<double>(g.num_vertices) / p)
        << "p=" << p;
  }
}

TEST(SuggestThreshold, GrowsWithGpuCount) {
  // More GPUs -> tighter delegate budget (d <= 4n/p) -> higher TH.  This is
  // the mechanism behind Fig. 7's sqrt(2)-per-scale growth along the weak
  // scaling curve.
  const EdgeList g = rmat_graph500({.scale = 13, .seed = 27});
  const PartitionStatsSweeper sweeper(g);
  const std::uint32_t th_small = suggest_threshold(sweeper, 2);
  const std::uint32_t th_large = suggest_threshold(sweeper, 128);
  EXPECT_LE(th_small, th_large);
}

TEST(SuggestThreshold, MatchesSweeperCounts) {
  const EdgeList g = rmat_graph500({.scale = 11, .seed = 28});
  const PartitionStatsSweeper sweeper(g);
  EXPECT_EQ(sweeper.num_vertices(), g.num_vertices);
  EXPECT_EQ(sweeper.num_edges(), g.size());
}

}  // namespace
}  // namespace dsbfs::graph
