// Checkpoint / rollback recovery: a run that loses a GPU mid-flight must
// finish with the bit-identical answer of a clean run, visibly charging the
// checkpoints it took, the rollback it performed and the iterations it
// replayed.  The engine checkpoints by copying each algorithm's State, so
// this covers it across state shapes: BFS (the one-lane LaneState, with its
// bare-id exchange buffers), batched BFS at W = 64 (LaneState, push and
// hybrid), the serving scheduler (LaneState plus the replicated scheduler
// core), delta-stepping SSSP, batched SSSP, betweenness and PageRank.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch_bfs.hpp"
#include "core/batch_sssp.hpp"
#include "core/betweenness.hpp"
#include "core/bfs.hpp"
#include "core/delta_sssp.hpp"
#include "core/pagerank.hpp"
#include "core/query_scheduler.hpp"
#include "graph/builder.hpp"
#include "graph/rmat.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"
#include "sim/topology.hpp"

namespace dsbfs {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.num_ranks = 2;
    spec_.gpus_per_rank = 2;
    edges_ = graph::rmat_graph500({.scale = 8, .seed = 5});
    dg_ = graph::build_distributed(edges_, spec_, 16);
  }

  /// A schedule killing GPU 1 as it enters iteration 2.  No cadence is set,
  /// so the engine must force per-iteration checkpointing on its own.
  static sim::ResilienceOptions kill_gpu1_at2() {
    sim::ResilienceOptions r;
    r.faults.fail_gpu = 1;
    r.faults.fail_iteration = 2;
    return r;
  }

  static void expect_recovered(const sim::FaultReport& f) {
    EXPECT_EQ(f.rollbacks, 1);
    EXPECT_GE(f.replayed_iterations, 1);
    EXPECT_GE(f.checkpoints, 1);
    EXPECT_GT(f.checkpoint_bytes, 0u);
    EXPECT_GT(f.recovery_ns, 0u);
    ASSERT_EQ(f.events.size(), 1u);
    EXPECT_EQ(f.events[0].kind, sim::FaultKind::kGpuFailure);
    EXPECT_EQ(f.events[0].from, 1);
    EXPECT_EQ(f.events[0].attempt, 2u);
  }

  sim::ClusterSpec spec_;
  graph::EdgeList edges_;
  graph::DistributedGraph dg_;
};

TEST_F(RecoveryTest, BfsSurvivesGpuFailureBitExact) {
  sim::Cluster cluster(spec_);
  // With parents off the snapshots carry no parent arrays at all; with
  // them on the rollback must restore the tree candidates too.
  for (const bool parents : {false, true}) {
    SCOPED_TRACE(parents ? "parents" : "no parents");
    core::BfsOptions options;
    options.compute_parents = parents;
    const core::BfsResult clean =
        core::DistributedBfs(dg_, cluster, options).run(3);

    options.run.resilience = kill_gpu1_at2();
    const core::BfsResult hurt =
        core::DistributedBfs(dg_, cluster, options).run(3);

    EXPECT_EQ(hurt.distances, clean.distances);
    EXPECT_EQ(hurt.parents, clean.parents);
    // BFS metrics count executed rounds, so the replayed window shows up on
    // top of the clean iteration count.
    EXPECT_EQ(hurt.metrics.iterations,
              clean.metrics.iterations +
                  hurt.metrics.fault.replayed_iterations);
    expect_recovered(hurt.metrics.fault);
    // The recovery charge and the replayed rounds must push the modeled
    // time above the clean run's.
    EXPECT_GT(hurt.metrics.modeled_ms, clean.metrics.modeled_ms);
  }
}

TEST_F(RecoveryTest, BatchBfs64SurvivesGpuFailureBitExact) {
  sim::Cluster cluster(spec_);
  std::vector<VertexId> sources;
  {
    core::DistributedBatchBfs sampler(dg_, cluster);
    for (std::uint64_t k = 0; k < 64; ++k) {
      sources.push_back(sampler.sample_source(k));
    }
  }
  // With parents off the snapshots carry no parent arrays at all; with
  // them on the rollback must restore every lane's tree candidates.  Under
  // hybrid direction it must also restore the direction states, the
  // controller, the factor seeds and the pull kernels' batch_mask.
  for (const bool hybrid : {false, true}) {
    for (const bool parents : {false, true}) {
      SCOPED_TRACE(parents ? "parents" : "no parents");
      SCOPED_TRACE(hybrid ? "hybrid" : "push");
      core::BfsOptions options;
      options.compute_parents = parents;
      options.direction_optimized = hybrid;
      const core::BatchBfsResult clean =
          core::DistributedBatchBfs(dg_, cluster, options).run(sources);
      ASSERT_EQ(clean.metrics.lane_bits, 64);

      options.run.resilience = kill_gpu1_at2();
      const core::BatchBfsResult hurt =
          core::DistributedBatchBfs(dg_, cluster, options).run(sources);

      EXPECT_EQ(hurt.distances, clean.distances);
      EXPECT_EQ(hurt.parents, clean.parents);
      EXPECT_EQ(hurt.metrics.iterations,
                clean.metrics.iterations +
                    hurt.metrics.fault.replayed_iterations);
      expect_recovered(hurt.metrics.fault);
    }
  }
}

TEST_F(RecoveryTest, DeltaSsspSurvivesGpuFailureBitExact) {
  sim::Cluster cluster(spec_);
  const core::DeltaSsspResult clean =
      core::DistributedDeltaSssp(dg_, cluster).run(3);

  core::DeltaSsspOptions options;
  options.run.resilience = kill_gpu1_at2();
  const core::DeltaSsspResult hurt =
      core::DistributedDeltaSssp(dg_, cluster, options).run(3);

  EXPECT_EQ(hurt.distances, clean.distances);
  EXPECT_EQ(hurt.iterations, clean.iterations);
  EXPECT_EQ(hurt.buckets_processed, clean.buckets_processed);
  expect_recovered(hurt.fault);
}

TEST_F(RecoveryTest, BatchSsspSurvivesGpuFailureBitExact) {
  sim::Cluster cluster(spec_);
  const std::vector<VertexId> sources = {3, 11, 42, 7, 100, 1, 9, 63};
  const core::BatchSsspResult clean =
      core::DistributedBatchSssp(dg_, cluster).run(sources);

  core::BatchSsspOptions options;
  options.run.resilience = kill_gpu1_at2();
  const core::BatchSsspResult hurt =
      core::DistributedBatchSssp(dg_, cluster, options).run(sources);

  EXPECT_EQ(hurt.distances, clean.distances);
  EXPECT_EQ(hurt.iterations, clean.iterations);
  EXPECT_EQ(hurt.buckets_processed, clean.buckets_processed);
  expect_recovered(hurt.fault);
}

TEST_F(RecoveryTest, BetweennessSurvivesGpuFailureInBothRunsBitExact) {
  // The fault schedule applies to both composed engine runs: GPU 1 dies
  // entering iteration 2 of the forward sweep AND of the reverse pass.
  // Scores must still match the clean run's doubles bit for bit.
  sim::Cluster cluster(spec_);
  const std::vector<VertexId> sources = {3, 11, 42, 7};
  const core::BetweennessResult clean =
      core::BetweennessCentrality(dg_, cluster).run(sources);

  core::BetweennessOptions options;
  options.run.resilience = kill_gpu1_at2();
  const core::BetweennessResult hurt =
      core::BetweennessCentrality(dg_, cluster, options).run(sources);

  EXPECT_EQ(hurt.scores, clean.scores);
  EXPECT_EQ(hurt.forward.iterations, clean.forward.iterations);
  EXPECT_EQ(hurt.reverse.iterations, clean.reverse.iterations);
  EXPECT_EQ(hurt.max_depth, clean.max_depth);
  expect_recovered(hurt.forward.fault);
  expect_recovered(hurt.reverse.fault);
}

TEST_F(RecoveryTest, PagerankSurvivesGpuFailureBitExact) {
  sim::Cluster cluster(spec_);
  const core::PagerankResult clean =
      core::DistributedPagerank(dg_, cluster).run();

  core::PagerankOptions options;
  options.run.resilience = kill_gpu1_at2();
  const core::PagerankResult hurt =
      core::DistributedPagerank(dg_, cluster, options).run();

  // Bit-identical doubles: rollback replays the exact FP operation sequence.
  EXPECT_EQ(hurt.ranks, clean.ranks);
  EXPECT_EQ(hurt.iterations, clean.iterations);
  expect_recovered(hurt.fault);
}

TEST_F(RecoveryTest, QuerySchedulerSurvivesGpuFailureBitExact) {
  // The serving tier under a mid-run device loss: the rollback must replay
  // the in-flight lanes (and their retire/admit boundaries) without
  // re-answering already-retired queries differently -- the replicated
  // scheduler core is part of the checkpoint, so the logical schedule of a
  // hurt run is the clean run's, bit for bit; only the modeled clock pays.
  sim::Cluster cluster(spec_);
  core::QueryScheduler sampler(dg_, cluster, {.width = 8});
  const std::vector<core::QueryArrival> trace = core::make_arrival_trace(
      dg_, {.queries = 12, .rate = 2.0,
            .pattern = core::ArrivalPattern::kUniform, .seed = 7});
  const core::SchedulerOutcome clean = sampler.run(trace);

  core::SchedulerOptions options;
  options.width = 8;
  options.run.resilience = kill_gpu1_at2();
  core::QueryScheduler hurt_scheduler(dg_, cluster, options);
  const core::SchedulerOutcome hurt = hurt_scheduler.run(trace);

  ASSERT_EQ(hurt.queries.size(), clean.queries.size());
  for (std::size_t i = 0; i < clean.queries.size(); ++i) {
    EXPECT_EQ(hurt.queries[i].distances, clean.queries[i].distances)
        << "query " << i;
    EXPECT_EQ(hurt.queries[i].lane, clean.queries[i].lane) << "query " << i;
    EXPECT_EQ(hurt.queries[i].admit_iteration, clean.queries[i].admit_iteration)
        << "query " << i;
    EXPECT_EQ(hurt.queries[i].retire_iteration,
              clean.queries[i].retire_iteration)
        << "query " << i;
  }
  ASSERT_EQ(hurt.events.size(), clean.events.size());
  for (std::size_t i = 0; i < clean.events.size(); ++i) {
    EXPECT_EQ(hurt.events[i].kind, clean.events[i].kind);
    EXPECT_EQ(hurt.events[i].iteration, clean.events[i].iteration);
    EXPECT_EQ(hurt.events[i].lane, clean.events[i].lane);
    EXPECT_EQ(hurt.events[i].query, clean.events[i].query);
  }
  EXPECT_EQ(hurt.metrics.run.iterations,
            clean.metrics.run.iterations +
                hurt.metrics.run.fault.replayed_iterations);
  expect_recovered(hurt.metrics.run.fault);

  // Row stamping: a transition at boundary b is timestamped by the history
  // row of b's last execution.  Rows append across the rollback, so every
  // boundary from the restored checkpoint on sits `replayed` rows later.
  const auto replayed =
      static_cast<std::uint64_t>(hurt.metrics.run.fault.replayed_iterations);
  const std::uint64_t restored =
      static_cast<std::uint64_t>(options.run.resilience.faults.fail_iteration) -
      replayed;
  const std::vector<double>& end_ms =
      hurt.metrics.run.modeled.iteration_end_ms;
  const auto ms_at = [&](std::uint64_t boundary) {
    const std::uint64_t row = boundary + (boundary >= restored ? replayed : 0);
    return end_ms.at(static_cast<std::size_t>(row));
  };
  for (std::size_t i = 0; i < hurt.queries.size(); ++i) {
    const core::ServedQuery& q = hurt.queries[i];
    EXPECT_EQ(q.retire_ms, ms_at(q.retire_iteration)) << "query " << i;
    EXPECT_EQ(q.admit_ms,
              q.admit_iteration == 0 ? 0.0 : ms_at(q.admit_iteration - 1))
        << "query " << i;
  }
  EXPECT_GT(hurt.metrics.run.modeled_ms, clean.metrics.run.modeled_ms);
  EXPECT_LT(hurt.metrics.queries_per_sec, clean.metrics.queries_per_sec);
}

TEST_F(RecoveryTest, CadenceBoundsTheReplayWindow) {
  // With checkpoints every 2 iterations and the failure at iteration 3, the
  // rollback lands on the iteration-2 snapshot: exactly one iteration is
  // replayed per GPU.
  sim::Cluster cluster(spec_);
  const core::BfsResult clean = core::DistributedBfs(dg_, cluster).run(3);
  ASSERT_GT(clean.metrics.iterations, 3);

  core::BfsOptions options;
  options.run.resilience.faults.fail_gpu = 2;
  options.run.resilience.faults.fail_iteration = 3;
  options.run.resilience.checkpoint_interval = 2;
  const core::BfsResult hurt =
      core::DistributedBfs(dg_, cluster, options).run(3);

  EXPECT_EQ(hurt.distances, clean.distances);
  EXPECT_EQ(hurt.metrics.fault.rollbacks, 1);
  EXPECT_EQ(hurt.metrics.fault.replayed_iterations, 1);
}

TEST_F(RecoveryTest, CheckpointingAloneChangesNothingButTheCharge) {
  // Cadence without any fault: the answer and the iteration structure must
  // be untouched; only the checkpoint accounting may appear.
  sim::Cluster cluster(spec_);
  const core::BfsResult clean = core::DistributedBfs(dg_, cluster).run(3);

  core::BfsOptions options;
  options.run.resilience.checkpoint_interval = 2;
  const core::BfsResult ckpt =
      core::DistributedBfs(dg_, cluster, options).run(3);

  EXPECT_EQ(ckpt.distances, clean.distances);
  EXPECT_EQ(ckpt.metrics.iterations, clean.metrics.iterations);
  EXPECT_EQ(ckpt.metrics.exchange_remote_bytes,
            clean.metrics.exchange_remote_bytes);
  EXPECT_EQ(ckpt.metrics.fault.rollbacks, 0);
  EXPECT_EQ(ckpt.metrics.fault.replayed_iterations, 0);
  EXPECT_GE(ckpt.metrics.fault.checkpoints, spec_.total_gpus());
  EXPECT_GT(ckpt.metrics.fault.checkpoint_bytes, 0u);
}

TEST_F(RecoveryTest, TransientStallIsChargedNotRecovered) {
  // A straggler GPU costs time but neither rolls back nor changes anything.
  sim::Cluster cluster(spec_);
  const core::BfsResult clean = core::DistributedBfs(dg_, cluster).run(3);

  core::BfsOptions options;
  options.run.resilience.faults.stall_gpu = 1;
  options.run.resilience.faults.stall_iteration = 1;
  options.run.resilience.faults.stall_ns = 2'000'000;
  const core::BfsResult hurt =
      core::DistributedBfs(dg_, cluster, options).run(3);

  EXPECT_EQ(hurt.distances, clean.distances);
  EXPECT_EQ(hurt.metrics.iterations, clean.metrics.iterations);
  EXPECT_EQ(hurt.metrics.fault.rollbacks, 0);
  ASSERT_EQ(hurt.metrics.fault.events.size(), 1u);
  EXPECT_EQ(hurt.metrics.fault.events[0].kind, sim::FaultKind::kStall);
  EXPECT_GT(hurt.metrics.modeled_ms, clean.metrics.modeled_ms);
}

TEST_F(RecoveryTest, BfsSurvivesGpuFailureUnderEveryExchangeTopology) {
  // Chaos x topology: the rollback path must restore multi-hop exchange
  // rounds exactly -- the replayed hops re-aggregate, re-bin and re-merge,
  // and the answer still matches a clean flat run bit for bit.  The 2x2
  // spec at one rank per node gives two modeled nodes, legal for both
  // hierarchical and (power-of-two) butterfly routing.
  sim::Cluster cluster(spec_);
  const core::BfsResult clean = core::DistributedBfs(dg_, cluster).run(3);

  for (const auto topology : {sim::ExchangeTopology::kHierarchical,
                              sim::ExchangeTopology::kButterfly}) {
    core::BfsOptions options;
    options.run.exchange_topology = topology;
    options.run.resilience = kill_gpu1_at2();
    const core::BfsResult hurt =
        core::DistributedBfs(dg_, cluster, options).run(3);

    EXPECT_EQ(hurt.distances, clean.distances) << sim::to_string(topology);
    expect_recovered(hurt.metrics.fault);
    EXPECT_GT(hurt.metrics.modeled_ms, clean.metrics.modeled_ms)
        << sim::to_string(topology);
  }
}

TEST_F(RecoveryTest, DeltaSsspSurvivesGpuFailureUnderEveryExchangeTopology) {
  // Same gauntlet on the value-typed engine state (kMin update combine runs
  // through the per-hop re-coalesce).
  sim::Cluster cluster(spec_);
  const core::DeltaSsspResult clean =
      core::DistributedDeltaSssp(dg_, cluster).run(3);

  for (const auto topology : {sim::ExchangeTopology::kHierarchical,
                              sim::ExchangeTopology::kButterfly}) {
    core::DeltaSsspOptions options;
    options.run.exchange_topology = topology;
    options.run.resilience = kill_gpu1_at2();
    const core::DeltaSsspResult hurt =
        core::DistributedDeltaSssp(dg_, cluster, options).run(3);

    EXPECT_EQ(hurt.distances, clean.distances) << sim::to_string(topology);
    EXPECT_EQ(hurt.buckets_processed, clean.buckets_processed)
        << sim::to_string(topology);
    expect_recovered(hurt.fault);
  }
}

TEST_F(RecoveryTest, FaultsPlusFailureTogetherStayBitExact) {
  // The full gauntlet on one engine run: lossy wire *and* a device loss.
  sim::Cluster cluster(spec_);
  const core::BfsResult clean = core::DistributedBfs(dg_, cluster).run(3);

  core::BfsOptions options;
  options.run.resilience = kill_gpu1_at2();
  options.run.resilience.faults.drop_rate = 0.05;
  options.run.resilience.faults.corrupt_rate = 0.05;
  options.run.resilience.checkpoint_interval = 1;
  const core::BfsResult hurt =
      core::DistributedBfs(dg_, cluster, options).run(3);

  EXPECT_EQ(hurt.distances, clean.distances);
  EXPECT_EQ(hurt.metrics.fault.rollbacks, 1);
  EXPECT_GT(hurt.metrics.fault.events.size(), 1u);
  EXPECT_GT(hurt.metrics.fault.retries + hurt.metrics.fault.corrupt_bins, 0u);
}

}  // namespace
}  // namespace dsbfs
