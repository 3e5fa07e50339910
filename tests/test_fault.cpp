#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "comm/transport.hpp"
#include "core/batch_bfs.hpp"
#include "core/bfs.hpp"
#include "core/sssp.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/rmat.hpp"
#include "sim/cluster.hpp"
#include "sim/topology.hpp"

namespace dsbfs {
namespace {

// ---- oracle determinism ---------------------------------------------------
// Every decision is a pure hash of (seed, from, to, tag, attempt); nothing
// below may depend on call order or thread interleaving.

TEST(FaultPlan, DecisionsArePureFunctionsOfTheSchedule) {
  const sim::FaultPlanConfig cfg{.seed = 42,
                                 .drop_rate = 0.2,
                                 .corrupt_rate = 0.2,
                                 .duplicate_rate = 0.1,
                                 .delay_rate = 0.1};
  const sim::FaultPlan a(cfg), b(cfg);
  for (int from = 0; from < 4; ++from) {
    for (int to = 0; to < 4; ++to) {
      for (const int tag : {10, 42, 74}) {
        for (std::uint64_t attempt = 0; attempt < 32; ++attempt) {
          EXPECT_EQ(a.decide(from, to, tag, attempt),
                    b.decide(from, to, tag, attempt));
          EXPECT_EQ(a.corrupt_bit(from, to, tag, attempt, 512),
                    b.corrupt_bit(from, to, tag, attempt, 512));
          EXPECT_LT(a.corrupt_bit(from, to, tag, attempt, 512), 512u);
        }
      }
    }
  }
}

TEST(FaultPlan, RatesShapeTheActionDistribution) {
  const sim::FaultPlan plan({.seed = 7,
                             .drop_rate = 0.25,
                             .corrupt_rate = 0.25,
                             .duplicate_rate = 0.25,
                             .delay_rate = 0.25});
  std::map<sim::FaultAction, int> histogram;
  constexpr int kAttempts = 4000;
  for (std::uint64_t attempt = 0; attempt < kAttempts; ++attempt) {
    ++histogram[plan.decide(0, 1, 10, attempt)];
  }
  // Every kind (and no delivery starvation) at equal 25% rates; a loose
  // 15%..35% window keeps the test robust to the hash's finite sample.
  for (const auto action :
       {sim::FaultAction::kDrop, sim::FaultAction::kCorrupt,
        sim::FaultAction::kDuplicate, sim::FaultAction::kDelay}) {
    EXPECT_GT(histogram[action], kAttempts * 15 / 100);
    EXPECT_LT(histogram[action], kAttempts * 35 / 100);
  }
  EXPECT_EQ(histogram[sim::FaultAction::kDeliver], 0);
}

TEST(FaultPlan, AllZeroRatesAlwaysDeliver) {
  const sim::FaultPlan plan({.seed = 9});
  EXPECT_FALSE(plan.config().enabled());
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    EXPECT_EQ(plan.decide(0, 1, 10, attempt), sim::FaultAction::kDeliver);
  }
}

TEST(FaultPlan, DifferentSeedsGiveDifferentSchedules) {
  const sim::FaultPlan a({.seed = 1, .drop_rate = 0.5});
  const sim::FaultPlan b({.seed = 2, .drop_rate = 0.5});
  int diverged = 0;
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    diverged += a.decide(0, 1, 10, attempt) != b.decide(0, 1, 10, attempt);
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultPlan, LogIsSortedRegardlessOfRecordOrder) {
  sim::FaultPlan plan({.drop_rate = 1.0});
  // Record from several threads in scrambled order; log() must come back in
  // one canonical order so same-seed runs compare equal.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&plan, t] {
      for (int i = 7; i >= 0; --i) {
        plan.record({sim::FaultKind::kDrop, t, (t + 1) % 4, 10,
                     static_cast<std::uint64_t>(i)});
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto log = plan.log();
  ASSERT_EQ(log.size(), 32u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_TRUE(log[i - 1] < log[i] || log[i - 1] == log[i]);
  }
}

// ---- end-to-end replayability ---------------------------------------------
// The ISSUE's contract: the same fault seed must produce the identical
// injected-fault log, the identical recovery counters and the identical
// answer, run after run, threads and all.

/// The run's recovery totals are exactly the sums of its counter rows: no
/// result keeps a second copy that could drift from them.
void expect_fault_totals_match_rows(const sim::FaultReport& fault,
                                    const sim::RunCounters& counters) {
  std::uint64_t retries = 0, corrupt_bins = 0, recovery_ns = 0;
  for (const sim::IterationCounters& ic : counters.iterations) {
    for (const sim::GpuIterationCounters& c : ic.gpu) {
      retries += c.retries;
      corrupt_bins += c.corrupt_bins;
      recovery_ns += c.recovery_ns;
    }
  }
  EXPECT_GT(retries + corrupt_bins, 0u);
  EXPECT_EQ(fault.retries, retries);
  EXPECT_EQ(fault.corrupt_bins, corrupt_bins);
  EXPECT_EQ(fault.recovery_ns, recovery_ns);
}

/// Fault events drawn by messages tagged past the loop's `iterations`
/// blocks: the post-loop work's exchanges.
int faults_past_loop(const sim::FaultReport& fault, int iterations) {
  int n = 0;
  for (const sim::FaultEvent& e : fault.events) {
    if (e.tag >= 0 && e.tag / comm::kTagBlock >= iterations) ++n;
  }
  return n;
}

class FaultReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.num_ranks = 2;
    spec_.gpus_per_rank = 2;
    edges_ = graph::rmat_graph500({.scale = 8, .seed = 5});
    dg_ = graph::build_distributed(edges_, spec_, 16);
  }

  sim::ClusterSpec spec_;
  graph::EdgeList edges_;
  graph::DistributedGraph dg_;
};

TEST_F(FaultReplayTest, SameSeedSameLogSameCountersBfs) {
  core::BfsOptions options;
  options.run.resilience.faults.seed = 11;
  options.run.resilience.faults.drop_rate = 0.05;
  options.run.resilience.faults.corrupt_rate = 0.05;
  options.run.resilience.faults.duplicate_rate = 0.02;
  options.run.resilience.faults.delay_rate = 0.02;

  sim::Cluster cluster(spec_);
  auto run = [&] { return core::DistributedBfs(dg_, cluster, options).run(3); };
  const core::BfsResult a = run();
  const core::BfsResult b = run();

  ASSERT_FALSE(a.metrics.fault.events.empty());
  EXPECT_EQ(a.metrics.fault.events, b.metrics.fault.events);
  EXPECT_EQ(a.metrics.fault.retries, b.metrics.fault.retries);
  EXPECT_EQ(a.metrics.fault.corrupt_bins, b.metrics.fault.corrupt_bins);
  EXPECT_EQ(a.metrics.fault.recovery_ns, b.metrics.fault.recovery_ns);
  expect_fault_totals_match_rows(a.metrics.fault, a.metrics.counters);
  EXPECT_EQ(a.metrics.exchange_remote_bytes, b.metrics.exchange_remote_bytes);
  EXPECT_EQ(a.metrics.modeled_ms, b.metrics.modeled_ms);
  EXPECT_EQ(a.distances, b.distances);
}

TEST_F(FaultReplayTest, SameSeedSameLogSameCountersSssp) {
  core::SsspOptions options;
  options.run.resilience.faults.seed = 23;
  options.run.resilience.faults.drop_rate = 0.05;
  options.run.resilience.faults.corrupt_rate = 0.05;

  sim::Cluster cluster(spec_);
  auto run = [&] {
    return core::DistributedSssp(dg_, cluster, options).run(3);
  };
  const core::SsspResult a = run();
  const core::SsspResult b = run();

  ASSERT_FALSE(a.fault.events.empty());
  EXPECT_EQ(a.fault.events, b.fault.events);
  EXPECT_EQ(a.fault.retries, b.fault.retries);
  EXPECT_EQ(a.fault.recovery_ns, b.fault.recovery_ns);
  expect_fault_totals_match_rows(a.fault, a.counters);
  EXPECT_EQ(a.update_bytes_remote, b.update_bytes_remote);
  EXPECT_EQ(a.modeled_ms, b.modeled_ms);
  EXPECT_EQ(a.distances, b.distances);
}

TEST_F(FaultReplayTest, LossyWireStaysBitExactUnderEveryExchangeTopology) {
  // Chaos x topology: drop/corrupt/duplicate on every hop class (the intra
  // gather, the inter leg, the scatter) must heal hop-locally -- the answer
  // stays the clean flat answer, and the same seed replays the identical
  // fault log and counters run after run.
  sim::Cluster cluster(spec_);
  const core::BfsResult clean = core::DistributedBfs(dg_, cluster).run(3);

  for (const auto topology : {sim::ExchangeTopology::kHierarchical,
                              sim::ExchangeTopology::kButterfly}) {
    core::BfsOptions options;
    options.run.exchange_topology = topology;
    options.run.resilience.faults.seed = 31;
    options.run.resilience.faults.drop_rate = 0.05;
    options.run.resilience.faults.corrupt_rate = 0.05;
    options.run.resilience.faults.duplicate_rate = 0.02;

    auto run = [&] {
      return core::DistributedBfs(dg_, cluster, options).run(3);
    };
    const core::BfsResult a = run();
    const core::BfsResult b = run();

    EXPECT_EQ(a.distances, clean.distances) << sim::to_string(topology);
    ASSERT_FALSE(a.metrics.fault.events.empty()) << sim::to_string(topology);
    EXPECT_GT(a.metrics.fault.retries + a.metrics.fault.corrupt_bins, 0u)
        << sim::to_string(topology);
    EXPECT_EQ(a.metrics.fault.events, b.metrics.fault.events)
        << sim::to_string(topology);
    EXPECT_EQ(a.metrics.fault.retries, b.metrics.fault.retries)
        << sim::to_string(topology);
    EXPECT_EQ(a.metrics.modeled_ms, b.metrics.modeled_ms)
        << sim::to_string(topology);
    EXPECT_EQ(a.distances, b.distances) << sim::to_string(topology);
  }
}

TEST_F(FaultReplayTest, DifferentSeedsChangeTheLogNotTheAnswer) {
  core::BfsOptions options;
  options.run.resilience.faults.drop_rate = 0.08;
  options.run.resilience.faults.corrupt_rate = 0.05;

  sim::Cluster cluster(spec_);
  options.run.resilience.faults.seed = 100;
  const core::BfsResult a = core::DistributedBfs(dg_, cluster, options).run(3);
  options.run.resilience.faults.seed = 200;
  const core::BfsResult b = core::DistributedBfs(dg_, cluster, options).run(3);

  EXPECT_NE(a.metrics.fault.events, b.metrics.fault.events);
  EXPECT_EQ(a.distances, b.distances);  // self-healing: answers never move
}

TEST_F(FaultReplayTest, BfsTreeRoundHealsOnTheLossyWire) {
  // The BFS-tree round after the loop rides the run's exchange: under a
  // lossy wire its messages draw faults in a tag block past the loop, the
  // hardened protocol heals them, and the trees stay the clean run's on
  // the flat and the butterfly topology, at one lane and at eight.
  sim::Cluster cluster(spec_);
  std::vector<VertexId> sources;
  const core::DistributedBatchBfs sampler(dg_, cluster);
  for (std::uint64_t k = 0; k < 8; ++k) {
    sources.push_back(sampler.sample_source(k));
  }
  for (const auto topology :
       {sim::ExchangeTopology::kFlat, sim::ExchangeTopology::kButterfly}) {
    SCOPED_TRACE(sim::to_string(topology));
    core::BfsOptions single;
    single.compute_parents = true;
    single.run.exchange_topology = topology;
    core::BfsOptions batch{.direction_optimized = false};
    batch.compute_parents = true;
    batch.run.exchange_topology = topology;
    const core::BfsResult clean =
        core::DistributedBfs(dg_, cluster, single).run(3);
    const core::BatchBfsResult clean_batch =
        core::DistributedBatchBfs(dg_, cluster, batch).run(sources);

    for (core::BfsOptions* options : {&single, &batch}) {
      options->run.resilience.faults.seed = 41;
      options->run.resilience.faults.drop_rate = 0.1;
      options->run.resilience.faults.corrupt_rate = 0.1;
    }
    const core::BfsResult hurt =
        core::DistributedBfs(dg_, cluster, single).run(3);
    EXPECT_EQ(hurt.distances, clean.distances);
    EXPECT_EQ(hurt.parents, clean.parents);
    const core::ValidationReport report =
        core::validate_parents(edges_, 3, hurt.distances, hurt.parents);
    EXPECT_TRUE(report.ok) << report.error;
    EXPECT_GT(faults_past_loop(hurt.metrics.fault, hurt.metrics.iterations), 0);

    const core::BatchBfsResult hurt_batch =
        core::DistributedBatchBfs(dg_, cluster, batch).run(sources);
    EXPECT_EQ(hurt_batch.distances, clean_batch.distances);
    EXPECT_EQ(hurt_batch.parents, clean_batch.parents);
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      const core::ValidationReport lane_report =
          core::validate_parents(edges_, sources[lane],
                                 hurt_batch.distances[lane],
                                 hurt_batch.parents[lane]);
      EXPECT_TRUE(lane_report.ok) << "lane " << lane << ": "
                                  << lane_report.error;
    }
    EXPECT_GT(faults_past_loop(hurt_batch.metrics.fault,
                               hurt_batch.metrics.iterations),
              0);
  }
}

TEST_F(FaultReplayTest, PostLoopRetriesCountInTheFaultReport) {
  // The parent round runs after the loop, so its retransmissions and
  // rejects land in the engine's post-loop row.  The fault report must
  // count them: under the same plan, a run with parents reports the loop's
  // retries plus the round's, while the model replays the loop rows only,
  // so the modeled time does not move.
  sim::Cluster cluster(spec_);
  int seeds_with_faults_past_loop = 0;
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    SCOPED_TRACE(seed);
    core::BfsOptions plain;
    plain.run.resilience.faults.seed = seed;
    plain.run.resilience.faults.drop_rate = 0.1;
    plain.run.resilience.faults.corrupt_rate = 0.1;
    core::BfsOptions parents = plain;
    parents.compute_parents = true;
    const core::BfsResult a = core::DistributedBfs(dg_, cluster, plain).run(3);
    const core::BfsResult b =
        core::DistributedBfs(dg_, cluster, parents).run(3);
    ASSERT_EQ(a.distances, b.distances);
    expect_fault_totals_match_rows(a.metrics.fault, a.metrics.counters);
    EXPECT_EQ(a.metrics.modeled_ms, b.metrics.modeled_ms);
    EXPECT_EQ(faults_past_loop(a.metrics.fault, a.metrics.iterations), 0);
    if (faults_past_loop(b.metrics.fault, b.metrics.iterations) == 0) continue;
    ++seeds_with_faults_past_loop;
    EXPECT_GT(b.metrics.fault.retries, a.metrics.fault.retries);
    EXPECT_GE(b.metrics.fault.corrupt_bins, a.metrics.fault.corrupt_bins);
    EXPECT_GT(b.metrics.fault.recovery_ns, a.metrics.fault.recovery_ns);
  }
  EXPECT_GT(seeds_with_faults_past_loop, 0);
}

}  // namespace
}  // namespace dsbfs
