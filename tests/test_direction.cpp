#include "core/direction.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dsbfs::core {
namespace {

TEST(BackwardWorkload, MatchesPaperFormula) {
  // BV = |U| (q + s) / q.
  EXPECT_DOUBLE_EQ(backward_workload(100, 10, 90), 100.0 * (10 + 90) / 10);
  EXPECT_DOUBLE_EQ(backward_workload(1, 1, 0), 1.0);
}

TEST(BackwardWorkload, EmptyFrontierIsInfinite) {
  EXPECT_TRUE(std::isinf(backward_workload(100, 0, 50)));
}

TEST(BackwardWorkload, ShrinksAsFrontierGrows) {
  // More newly visited parents -> higher hit probability -> cheaper pull.
  const double small_frontier = backward_workload(1000, 10, 990);
  const double large_frontier = backward_workload(1000, 900, 100);
  EXPECT_GT(small_frontier, large_frontier);
}

TEST(DirectionState, StartsForward) {
  DirectionState s(DirectionFactors{0.5, 0.05});
  EXPECT_FALSE(s.backward());
}

TEST(DirectionState, SwitchesToBackwardWhenForwardCostly) {
  DirectionState s(DirectionFactors{0.5, 0.0});
  // FV > 0.5 * BV -> switch.
  EXPECT_TRUE(s.update(/*fv=*/100.0, /*bv=*/100.0, true));
  EXPECT_TRUE(s.backward());
}

TEST(DirectionState, StaysForwardWhenCheap) {
  DirectionState s(DirectionFactors{0.5, 0.0});
  EXPECT_FALSE(s.update(10.0, 100.0, true));
}

TEST(DirectionState, SwitchesBackWithPositiveFactor1) {
  DirectionState s(DirectionFactors{0.5, 0.05});
  s.update(100.0, 100.0, true);  // -> backward
  ASSERT_TRUE(s.backward());
  // FV < 0.05 * BV -> back to forward.
  EXPECT_FALSE(s.update(1.0, 1000.0, true));
}

TEST(DirectionState, NeverSwitchesBackWithZeroFactor1) {
  // The paper's RMAT setting: once backward, stay backward.
  DirectionState s(DirectionFactors{0.5, 0.0});
  s.update(100.0, 100.0, true);
  EXPECT_TRUE(s.update(0.0, 1e9, true));
  EXPECT_TRUE(s.backward());
}

TEST(DirectionState, TinyFactorSwitchesAlmostImmediately) {
  // A near-zero factor: any nonzero forward workload triggers the pull
  // direction once BV is finite.
  DirectionState s(DirectionFactors{1e-7, 0.0});
  EXPECT_TRUE(s.update(1.0, 1000.0, true));
}

TEST(DirectionState, DisabledDoForcesForward) {
  DirectionState s(DirectionFactors{0.5, 0.0});
  s.update(100.0, 1.0, true);  // would switch
  ASSERT_TRUE(s.backward());
  // With DO disabled the kernel must run forward regardless of state.
  EXPECT_FALSE(s.update(1e9, 1.0, false));
  EXPECT_FALSE(s.backward());
}

TEST(DirectionState, InfiniteBvKeepsForward) {
  DirectionState s(DirectionFactors{0.5, 0.0});
  EXPECT_FALSE(s.update(1e12, backward_workload(10, 0, 10), true));
}

TEST(DirectionState, ResetRestoresForward) {
  DirectionState s(DirectionFactors{0.5, 0.0});
  s.update(10.0, 1.0, true);
  ASSERT_TRUE(s.backward());
  s.reset();
  EXPECT_FALSE(s.backward());
}

TEST(DirectionState, SetFactorsKeepsPosition) {
  DirectionState s(DirectionFactors{0.5, 0.0});
  s.update(100.0, 100.0, true);
  ASSERT_TRUE(s.backward());
  // Re-installing factors (what the controller does each previsit) must not
  // reset the hysteresis position.
  s.set_factors(DirectionFactors{0.5, 0.05});
  EXPECT_TRUE(s.backward());
  EXPECT_FALSE(s.update(1.0, 1000.0, true));  // new to_forward in effect
}

// ---- lane-aware backward workload (batched union-frontier pulls) ---------

/// A candidate edge mass no estimate below reaches: the cap is inactive.
constexpr std::uint64_t kLargeMass = std::uint64_t{1} << 40;

TEST(LaneBackwardWorkload, OneLiveLaneIsExactlyScalar) {
  // H_1 = 1: the W = 1 hybrid batch must reproduce single-source estimates
  // bit for bit.
  EXPECT_EQ(lane_backward_workload(100, 10, 90, 1, kLargeMass),
            backward_workload(100, 10, 90));
  EXPECT_EQ(lane_backward_workload(1, 1, 0, 1, kLargeMass),
            backward_workload(1, 1, 0));
}

TEST(LaneBackwardWorkload, AllLanesLiveScalesByHarmonic) {
  double h64 = 0;
  for (int i = 1; i <= 64; ++i) h64 += 1.0 / i;
  EXPECT_DOUBLE_EQ(lane_backward_workload(100, 10, 90, 64, kLargeMass),
                   h64 * backward_workload(100, 10, 90));
  // The expected max of 64 early-exit scans is well under 64 full scans.
  EXPECT_LT(lane_backward_workload(100, 10, 90, 64, kLargeMass),
            64.0 * backward_workload(100, 10, 90));
}

TEST(LaneBackwardWorkload, EmptyUnionFrontierIsInfinite) {
  // q = 0 and no live lanes stay infinite whatever the mass, even 0.
  for (const std::uint64_t mass : {kLargeMass, std::uint64_t{0}}) {
    EXPECT_TRUE(std::isinf(lane_backward_workload(100, 0, 50, 8, mass)));
    EXPECT_TRUE(std::isinf(lane_backward_workload(100, 10, 50, 0, mass)));
  }
}

TEST(LaneBackwardWorkload, GrowsWithLiveLanes) {
  const double one = lane_backward_workload(1000, 10, 990, 1, kLargeMass);
  const double some = lane_backward_workload(1000, 10, 990, 8, kLargeMass);
  const double all = lane_backward_workload(1000, 10, 990, 64, kLargeMass);
  EXPECT_LT(one, some);
  EXPECT_LT(some, all);
}

TEST(LaneBackwardWorkload, NeverExceedsTheCandidatesEdgeMass) {
  // A one-vertex frontier prices 1000 candidates at 1000 * 1000 scans
  // uncapped, but an early-exit pull never scans past their rows.
  for (const int lanes : {1, 8, 64}) {
    for (const std::uint64_t mass : {1u, 500u, 4000u, 999'999u}) {
      const double bv = lane_backward_workload(1000, 1, 999, lanes, mass);
      EXPECT_LE(bv, static_cast<double>(mass)) << lanes << " " << mass;
      EXPECT_EQ(bv, static_cast<double>(mass)) << lanes << " " << mass;
    }
  }
}

TEST(LaneBackwardWorkload, CapIsTheIdentityBelowTheMass) {
  // 100 candidates, q = 10, s = 90: |U| (q + s) / q = 1000 edges.
  EXPECT_EQ(lane_backward_workload(100, 10, 90, 1, 1000),
            backward_workload(100, 10, 90));
  EXPECT_EQ(lane_backward_workload(100, 10, 90, 1, 1001),
            backward_workload(100, 10, 90));
  EXPECT_EQ(lane_backward_workload(100, 10, 90, 1, 999), 999.0);
  double h8 = 0;
  for (int i = 1; i <= 8; ++i) h8 += 1.0 / i;
  EXPECT_DOUBLE_EQ(lane_backward_workload(100, 10, 90, 8, 1'000'000),
                   h8 * backward_workload(100, 10, 90));
}

TEST(LaneBackwardWorkload, NoCandidateEdgesLeftMakesThePullFree) {
  // Every candidate visited: the mass is 0, so BV is 0 and any forward
  // work switches the kernel to a pull that scans nothing.
  EXPECT_EQ(lane_backward_workload(0, 10, 90, 1, 0), 0.0);
  EXPECT_EQ(lane_backward_workload(100, 10, 90, 64, 0), 0.0);
  DirectionState s(kBfsDirectionSeeds.nd);
  EXPECT_TRUE(s.update(1.0, lane_backward_workload(5, 3, 7, 1, 0), true));
}

// ---- static seeds ---------------------------------------------------------

TEST(DirectionSeeds, BfsSeedsAreTheDeviceModelRateRatios) {
  // dd pushes merge-based, dn and nd dynamically; every BFS pull runs the
  // backward class.  No switch-back.
  const sim::DeviceModelConfig rates{};
  EXPECT_DOUBLE_EQ(
      kBfsDirectionSeeds.dd.to_backward,
      rates.ns_per_edge_backward / rates.ns_per_edge_forward_merge);
  EXPECT_DOUBLE_EQ(
      kBfsDirectionSeeds.dn.to_backward,
      rates.ns_per_edge_backward / rates.ns_per_edge_forward_dynamic);
  EXPECT_DOUBLE_EQ(
      kBfsDirectionSeeds.nd.to_backward,
      rates.ns_per_edge_backward / rates.ns_per_edge_forward_dynamic);
  EXPECT_NEAR(kBfsDirectionSeeds.dd.to_backward, 0.786, 1e-3);
  EXPECT_NEAR(kBfsDirectionSeeds.nd.to_backward, 0.611, 1e-3);
  for (const DirectionFactors& f :
       {kBfsDirectionSeeds.dd, kBfsDirectionSeeds.dn, kBfsDirectionSeeds.nd}) {
    EXPECT_EQ(f.to_forward, 0.0);
  }
}

// ---- online direction controller -----------------------------------------

sim::GpuIterationCounters iteration_with(std::uint64_t pull_edges,
                                         std::uint64_t pull_vertices,
                                         std::uint64_t push_edges,
                                         std::uint64_t push_vertices) {
  sim::GpuIterationCounters c;
  if (pull_edges > 0) {
    c.dd.launched = true;
    c.dd.backward = true;
    c.dd.edges = pull_edges;
    c.dd.vertices = pull_vertices;
  }
  if (push_edges > 0) {
    c.nn.launched = true;
    c.nn.edges = push_edges;
    c.nn.vertices = push_vertices;
  }
  return c;
}

TEST(DirectionController, PriorReproducesSeedExactly) {
  // Until observations rival the prior edge mass, the multiplier must be
  // 1.0 bit for bit ((a/b) / (a/b) in IEEE), so adaptive-on changes nothing
  // at smoke scales.
  const DirectionController ctl;
  const DirectionFactors seed{0.5, 0.05};
  const DirectionFactors merge = ctl.factors(seed, /*merge_based=*/true);
  const DirectionFactors dyn = ctl.factors(seed, /*merge_based=*/false);
  EXPECT_EQ(merge.to_backward, seed.to_backward);
  EXPECT_EQ(merge.to_forward, seed.to_forward);
  EXPECT_EQ(dyn.to_backward, seed.to_backward);
  EXPECT_EQ(dyn.to_forward, seed.to_forward);
}

TEST(DirectionController, LaunchDominatedPullsRaiseTheSwitchThreshold) {
  // Tiny pull rounds pay the fixed launch overhead over few edges: the
  // realized pull cost per edge far exceeds the asymptotic rate, so the
  // controller must back off switching (larger to_backward) -- the paper's
  // Section VI-D long-tail failure mode, handled online.
  DirectionController ctl;
  for (int i = 0; i < 20000; ++i) {
    ctl.observe(iteration_with(/*pull_edges=*/1000, /*pull_vertices=*/500,
                               /*push_edges=*/1000, /*push_vertices=*/500));
  }
  const DirectionFactors seed{0.5, 0.05};
  const DirectionFactors adapted = ctl.factors(seed, /*merge_based=*/true);
  EXPECT_GT(adapted.to_backward, seed.to_backward);
  // Hysteresis width (the threshold ratio) is preserved.
  EXPECT_DOUBLE_EQ(adapted.to_forward / adapted.to_backward,
                   seed.to_forward / seed.to_backward);
  EXPECT_GT(ctl.estimated_pull_ns_per_edge(),
            sim::DeviceModelConfig{}.ns_per_edge_backward);
}

TEST(DirectionController, IdenticalObservationsGiveIdenticalFactors) {
  // Every controller input is a deterministic counter; two controllers fed
  // the same sequence must agree bit for bit (run-to-run reproducibility of
  // the direction decisions rests on this).
  DirectionController a, b;
  for (int i = 0; i < 100; ++i) {
    const auto c = iteration_with(1000 + static_cast<std::uint64_t>(i) * 17,
                                  40 + static_cast<std::uint64_t>(i),
                                  5000 + static_cast<std::uint64_t>(i) * 31,
                                  200 + static_cast<std::uint64_t>(i));
    a.observe(c);
    b.observe(c);
  }
  const DirectionFactors seed{0.5, 0.05};
  const DirectionFactors fa = a.factors(seed, false);
  const DirectionFactors fb = b.factors(seed, false);
  EXPECT_EQ(fa.to_backward, fb.to_backward);
  EXPECT_EQ(fa.to_forward, fb.to_forward);
  EXPECT_EQ(a.estimated_push_ns_per_edge(false),
            b.estimated_push_ns_per_edge(false));
  EXPECT_EQ(a.estimated_pull_ns_per_edge(), b.estimated_pull_ns_per_edge());
}

}  // namespace
}  // namespace dsbfs::core
