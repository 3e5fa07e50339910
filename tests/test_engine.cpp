#include "engine/iterative_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "baseline/host_apps.hpp"
#include "baseline/serial_bfs.hpp"
#include "core/bfs.hpp"
#include "core/components.hpp"
#include "core/pagerank.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace dsbfs::engine {
namespace {

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

// ---- TagBlocks -----------------------------------------------------------

TEST(TagBlocks, MatchesTheHistoricTagArithmetic) {
  EXPECT_EQ(TagBlocks::control(0), comm::kTagControl);
  EXPECT_EQ(TagBlocks::control(3), comm::kTagControl + 3 * comm::kTagBlock);
  EXPECT_EQ(TagBlocks::user(5), comm::kTagUser + 5 * comm::kTagBlock);
  EXPECT_EQ(TagBlocks::user(5, 4), comm::kTagUser + 5 * comm::kTagBlock + 4);
  // Post-loop phases (the BFS parent round) start at block depth + 2.
  EXPECT_EQ(TagBlocks::user(TagBlocks::after_loop(7)),
            comm::kTagUser + (7 + 2) * comm::kTagBlock);
  // Channel spacing lives with the reducers now (comm::kReduceChannelStride);
  // PageRank's three per-iteration reductions must fit.
  static_assert(comm::kMaxReduceChannels >= 3);
  static_assert(comm::kReduceChannelStride > 0);
}

TEST(TagBlocks, PostLoopBlocksStayDisjointFromIterations) {
  const int iterations = 11;
  for (int phase = 0; phase < 3; ++phase) {
    const int block = TagBlocks::after_loop(iterations, phase);
    // Strictly past every iteration's block, and per-phase distinct.
    EXPECT_GT(TagBlocks::user(block), TagBlocks::control(iterations));
    EXPECT_GT(TagBlocks::user(block), TagBlocks::user(iterations));
    if (phase > 0) {
      EXPECT_GT(block, TagBlocks::after_loop(iterations, phase - 1));
    }
  }
}

// ---- CommContext ---------------------------------------------------------

TEST(CommContext, OwnsTheClusterWideCollectives) {
  const auto spec = spec_of(2, 2);
  CommContext comm(spec);
  ASSERT_EQ(comm.everyone().size(), 4u);
  for (int g = 0; g < 4; ++g) EXPECT_EQ(comm.everyone()[g], g);

  // control_allreduce sums every GPU's word.
  std::vector<std::uint64_t> results(4);
  std::vector<std::thread> threads;
  for (int g = 0; g < 4; ++g) {
    threads.emplace_back([&, g] {
      results[static_cast<std::size_t>(g)] = comm.control_allreduce(
          g, static_cast<std::uint64_t>(10 + g), /*iteration=*/0);
    });
  }
  for (auto& th : threads) th.join();
  for (const std::uint64_t r : results) EXPECT_EQ(r, 10u + 11 + 12 + 13);
}

TEST(CommContext, ConsumedReceiveBufferBecomesTheNextLoopbackBin) {
  // Both record kinds, as the BFS (ids) and batched BFS (updates) exchange
  // hooks use them.  The exchange moves the loopback bin into the records
  // it returns; adopt_received hands the previous, consumed `received`
  // buffer back as the loopback bin, so from the second round on the bin
  // the visit fills keeps its capacity.
  const auto spec = spec_of(1, 1);
  const sim::GpuCoord me{0, 0};
  CommContext comm(spec);
  sim::GpuIterationCounters iter;
  const auto check = [&](auto record, auto exchange) {
    using Record = decltype(record);
    std::vector<std::vector<Record>> bins(1);
    std::vector<Record> received;
    // Round 0: a large loopback bin comes back as the received records.
    bins[0].assign(1000, record);
    adopt_received(bins, 0, received, exchange(bins, 0));
    ASSERT_EQ(received.size(), 1000u);
    const Record* round0 = received.data();
    received.clear();  // the next previsit consumes the arrivals
    // Round 1: round 0's buffer returns as the loopback bin.
    bins[0].push_back(record);
    adopt_received(bins, 0, received, exchange(bins, 1));
    EXPECT_EQ(received.size(), 1u);
    EXPECT_TRUE(bins[0].empty());
    EXPECT_GE(bins[0].capacity(), 1000u);
    EXPECT_EQ(bins[0].data(), round0);
    // Round 2's visit refills it in place.
    bins[0].assign(1000, record);
    EXPECT_EQ(bins[0].data(), round0);
  };
  check(LocalId{7}, [&](std::vector<std::vector<LocalId>>& bins, int it) {
    return comm.exchange(me, bins, it, {}, iter);
  });
  check(comm::VertexUpdate{7, 1},
        [&](std::vector<std::vector<comm::VertexUpdate>>& bins, int it) {
          return comm.exchange(me, bins, it, {}, iter);
        });
}

// ---- IterativeEngine with a toy algorithm --------------------------------

/// Countdown: GPU g starts with g + 1 units of work and burns one per
/// iteration; the cluster converges when the control allreduce sees zero
/// remaining anywhere.  Records the phase sequence to pin the engine's
/// calling order.
class CountdownAlgorithm {
 public:
  static constexpr const char* kStateLabel = "countdown.state";

  struct State {
    int remaining = 0;
    std::vector<std::string> trace;
    int finalize_iterations = -1;
    sim::GpuIterationCounters iter;
  };

  std::unique_ptr<State> init(GpuContext& ctx) {
    auto s = std::make_unique<State>();
    s->remaining = ctx.gpu + 1;
    return s;
  }
  std::uint64_t state_bytes(const GpuContext&, const State&) const {
    return 64;
  }
  void previsit(GpuContext&, State& s, int) {
    s.iter = sim::GpuIterationCounters{};
    s.trace.push_back("previsit");
  }
  void visit(GpuContext&, State& s, int iteration) {
    s.iter.nn.edges = static_cast<std::uint64_t>(iteration);
    s.trace.push_back("visit");
  }
  void reduce(GpuContext&, State& s, int) { s.trace.push_back("reduce"); }
  void exchange(GpuContext&, State& s, int) { s.trace.push_back("exchange"); }
  std::uint64_t contribution(GpuContext&, State& s, int) {
    s.trace.push_back("contribution");
    return static_cast<std::uint64_t>(s.remaining);
  }
  void post_reduce(GpuContext&, State& s, int, std::uint64_t) {
    s.trace.push_back("post_reduce");
  }
  bool end_iteration(GpuContext&, State& s, int, std::uint64_t control) {
    s.trace.push_back("end");
    if (s.remaining > 0) --s.remaining;
    return control == 0;
  }
  sim::GpuIterationCounters iteration_counters(const State& s) const {
    return s.iter;
  }
  void finalize(GpuContext&, State& s, int iterations) {
    s.finalize_iterations = iterations;
  }
};

TEST(IterativeEngine, RunsPhasesInOrderUntilControlConverges) {
  const auto spec = spec_of(2, 2);  // p = 4; slowest GPU holds 4 units
  sim::Cluster cluster(spec);
  const graph::EdgeList g = graph::path_graph(16);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);

  CountdownAlgorithm algo;
  // Sequential schedule: hook order is only deterministic without the
  // two-stream overlap (overlapped reduce/exchange run on stream threads).
  IterativeEngine<CountdownAlgorithm> engine(dg, cluster, {.overlap = false});
  const auto run = engine.run(algo);

  // GPU 3 needs 4 iterations to drain, plus the all-zero round that
  // announces convergence.
  EXPECT_EQ(run.iterations, 5);
  EXPECT_GT(run.measured_ms, 0.0);
  const std::vector<std::string> phases = {
      "previsit", "visit", "reduce", "exchange", "contribution",
      "post_reduce", "end"};
  for (int g_idx = 0; g_idx < 4; ++g_idx) {
    const auto& s = run.state(g_idx);
    EXPECT_EQ(s.remaining, 0);
    EXPECT_EQ(s.finalize_iterations, 5);
    ASSERT_EQ(s.trace.size(), phases.size() * 5);
    for (std::size_t i = 0; i < s.trace.size(); ++i) {
      EXPECT_EQ(s.trace[i], phases[i % phases.size()]) << i;
    }
    // Engine-owned history: one snapshot per iteration, taken after the
    // iteration ended.
    const auto& history = run.histories[static_cast<std::size_t>(g_idx)];
    ASSERT_EQ(history.size(), 5u);
    for (std::size_t it = 0; it < history.size(); ++it) {
      EXPECT_EQ(history[it].nn.edges, it);
    }
  }
}

/// An algorithm with only the required hooks: no reduce, post_reduce or
/// finalize, and no counters accessor beside State::iter.
class MinimalAlgorithm {
 public:
  static constexpr const char* kStateLabel = "minimal.state";

  struct State {
    int rounds = 0;
    sim::GpuIterationCounters iter;
  };

  std::unique_ptr<State> init(GpuContext&) { return std::make_unique<State>(); }
  std::uint64_t state_bytes(const GpuContext&, const State&) const {
    return 8;
  }
  void previsit(GpuContext&, State& s, int) { s.iter = {}; }
  void visit(GpuContext&, State& s, int) { s.iter.nn.edges = 7; }
  void exchange(GpuContext&, State&, int) {}
  std::uint64_t contribution(GpuContext&, State& s, int) {
    return s.rounds < 2 ? 1 : 0;
  }
  bool end_iteration(GpuContext&, State& s, int, std::uint64_t control) {
    ++s.rounds;
    return control == 0;
  }
};
static_assert(IterativeAlgorithm<MinimalAlgorithm>);
static_assert(!HasReduce<MinimalAlgorithm> &&
              !HasPostReduce<MinimalAlgorithm> &&
              !HasFinalize<MinimalAlgorithm>);
static_assert(HasReduce<CountdownAlgorithm> &&
              HasPostReduce<CountdownAlgorithm> &&
              HasFinalize<CountdownAlgorithm>);

TEST(IterativeEngine, RunsAlgorithmsWithoutTheOptionalHooks) {
  const auto spec = spec_of(2, 1);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg =
      graph::build_distributed(graph::path_graph(16), spec, 4);
  MinimalAlgorithm algo;
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlap" : "sequential");
    IterativeEngine<MinimalAlgorithm> engine(dg, cluster,
                                             {.overlap = overlap});
    const auto run = engine.run(algo);
    EXPECT_EQ(run.iterations, 3);
    for (const auto& history : run.histories) {
      ASSERT_EQ(history.size(), 3u);
      for (const auto& row : history) EXPECT_EQ(row.nn.edges, 7u);
    }
  }
}

TEST(IterativeEngine, RejectsMismatchedSpecs) {
  const graph::EdgeList g = graph::path_graph(16);
  const graph::DistributedGraph dg =
      graph::build_distributed(g, spec_of(2, 1), 4);
  sim::Cluster wrong(spec_of(2, 2));
  EXPECT_THROW((IterativeEngine<CountdownAlgorithm>(dg, wrong)),
               std::invalid_argument);
}

TEST(IterativeEngine, SpecCheckIsSharedByEveryAlgorithmConstructor) {
  const graph::EdgeList g = graph::path_graph(16);
  const graph::DistributedGraph dg =
      graph::build_distributed(g, spec_of(2, 1), 4);
  sim::Cluster wrong(spec_of(4, 1));
  EXPECT_THROW(core::DistributedBfs(dg, wrong), std::invalid_argument);
  EXPECT_THROW(core::ConnectedComponents(dg, wrong), std::invalid_argument);
  EXPECT_THROW(core::DistributedPagerank(dg, wrong), std::invalid_argument);
}

// ---- regression: ported algorithms still match the serial references -----

TEST(EnginePortRegression, BfsDistancesMatchSerialReference) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 31});
  const graph::HostCsr host = graph::build_host_csr(g);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  core::DistributedBfs bfs(dg, cluster);
  for (const VertexId source : {VertexId{2}, VertexId{77}}) {
    const core::BfsResult r = bfs.run(source);
    const auto expected = baseline::serial_bfs(host, source);
    ASSERT_EQ(r.distances.size(), expected.size());
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(r.distances[v], expected[v]) << "vertex " << v;
    }
  }
}

TEST(EnginePortRegression, ComponentLabelsMatchSerialReference) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 32});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const core::CcResult r = core::ConnectedComponents(dg, cluster).run();
  const auto expected =
      baseline::serial_components(graph::build_host_csr(g));
  ASSERT_EQ(r.labels.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(r.labels[v], expected[v]) << "vertex " << v;
  }
}

TEST(EnginePortRegression, PagerankMatchesSerialReference) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 33});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const core::PagerankResult r = core::DistributedPagerank(dg, cluster).run();
  const auto expected = baseline::serial_pagerank(graph::build_host_csr(g));
  ASSERT_EQ(r.ranks.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(r.ranks[v], expected[v], 1e-9) << "vertex " << v;
  }
}

// ---- two-stream overlap --------------------------------------------------

TEST(EngineOverlap, ValueAlgorithmResultsIdenticalAndModeledTimeLower) {
  // The delegate label reduction runs concurrently with the normal-label
  // exchange under overlap; results must be identical either way, and the
  // replayed cluster time must strictly favour the overlapped schedule.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 35});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);

  core::CcOptions on;
  on.run.overlap = true;
  core::CcOptions off;
  off.run.overlap = false;
  const core::CcResult r_on = core::ConnectedComponents(dg, cluster, on).run();
  const core::CcResult r_off =
      core::ConnectedComponents(dg, cluster, off).run();

  EXPECT_EQ(r_on.labels, r_off.labels);
  EXPECT_EQ(r_on.update_bytes_remote, r_off.update_bytes_remote);
  EXPECT_LT(r_on.modeled_ms, r_off.modeled_ms);
}

TEST(EngineOverlap, BfsSequentialScheduleMatchesOverlapped) {
  // BFS on the engine's sequential branch: same distances, and the replayed
  // cluster time must not beat the overlapped schedule.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 36});
  const graph::HostCsr host = graph::build_host_csr(g);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);

  core::BfsOptions off;
  off.run.overlap = false;
  const core::BfsResult r_on = core::DistributedBfs(dg, cluster).run(7);
  const core::BfsResult r_off =
      core::DistributedBfs(dg, cluster, off).run(7);

  EXPECT_EQ(r_on.distances, r_off.distances);
  const auto expected = baseline::serial_bfs(host, 7);
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(r_off.distances[v], expected[v]) << "vertex " << v;
  }
  EXPECT_LT(r_on.metrics.modeled_ms, r_off.metrics.modeled_ms);
}

TEST(EnginePortRegression, BfsParentsStillFormValidTree) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 34});
  const graph::HostCsr host = graph::build_host_csr(g);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 8);
  core::BfsOptions options;
  options.compute_parents = true;
  core::DistributedBfs bfs(dg, cluster, options);
  const VertexId source = 5;
  const core::BfsResult r = bfs.run(source);
  ASSERT_EQ(r.parents.size(), r.distances.size());
  EXPECT_EQ(r.parents[source], source);
  for (VertexId v = 0; v < r.parents.size(); ++v) {
    if (v == source || r.distances[v] == kUnvisited) continue;
    const VertexId parent = r.parents[v];
    ASSERT_NE(parent, kInvalidVertex) << v;
    // Parent sits exactly one level closer to the source.
    EXPECT_EQ(r.distances[parent] + 1, r.distances[v]) << v;
  }
}

}  // namespace
}  // namespace dsbfs::engine
