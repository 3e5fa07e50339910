// The run's wire policy -- merge on/off and the codec, both fields of
// engine::RunOptions -- is applied by engine::CommContext to every normal
// exchange of the run.  Each facade that ships update records runs once with
// the merge off and raw records, and once with the merge on and the adaptive
// codec; the counter rows must show the policy took effect on every row, and
// every answer must still equal its serial oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "baseline/brandes.hpp"
#include "baseline/host_apps.hpp"
#include "baseline/serial_bfs.hpp"
#include "core/batch_bfs.hpp"
#include "core/batch_sssp.hpp"
#include "core/betweenness.hpp"
#include "core/components.hpp"
#include "core/delta_sssp.hpp"
#include "core/pagerank.hpp"
#include "core/query_scheduler.hpp"
#include "core/sssp.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"

namespace dsbfs::core {
namespace {

/// Wire totals of one engine run, summed over every GPU and row.
struct WireTotals {
  std::uint64_t binned = 0;     // records placed in bins
  std::uint64_t uniquified = 0;  // records run through the merge
  std::uint64_t coded_bins = 0;  // per-bin codec decisions, either way
};

WireTotals wire_totals(const sim::RunCounters& counters) {
  WireTotals t;
  for (const sim::IterationCounters& row : counters.iterations) {
    for (const sim::GpuIterationCounters& c : row.gpu) {
      t.binned += c.bin_vertices;
      t.uniquified += c.uniquify_vertices;
      t.coded_bins += c.bins_compressed + c.bins_uncompressed;
    }
  }
  return t;
}

struct FacadeRun {
  std::string name;
  WireTotals wire;
  bool matches_oracle = false;
};

class WirePolicy : public ::testing::Test {
 protected:
  WirePolicy()
      : graph_(graph::rmat_graph500({.scale = 9, .seed = 57})),
        host_(graph::build_host_csr(graph_)),
        spec_{.num_ranks = 2, .gpus_per_rank = 2},
        dg_(graph::build_distributed(graph_, spec_, 16)),
        cluster_(spec_) {
    for (int i = 0; i < 8; ++i) {
      sources_.push_back(
          (static_cast<VertexId>(i) * 37 + 1) % dg_.num_vertices());
    }
  }

  /// Every update-shipping facade under `run`.
  std::vector<FacadeRun> run_facades(const engine::RunOptions& run) {
    std::vector<FacadeRun> out;
    const VertexId source = sources_[0];

    {
      CcOptions o;
      o.run = run;
      const CcResult r = ConnectedComponents(dg_, cluster_, o).run();
      out.push_back({"cc", wire_totals(r.counters),
                     r.labels == baseline::serial_components(host_)});
    }
    {
      PagerankOptions o;
      o.run = run;
      const PagerankResult r = DistributedPagerank(dg_, cluster_, o).run();
      const std::vector<double> oracle = baseline::serial_pagerank(host_);
      bool ok = r.ranks.size() == oracle.size();
      for (std::size_t v = 0; ok && v < oracle.size(); ++v) {
        ok = std::abs(r.ranks[v] - oracle[v]) < 1e-9;
      }
      out.push_back({"pagerank", wire_totals(r.counters), ok});
    }
    const std::vector<std::uint64_t> sssp_oracle =
        baseline::serial_sssp(host_, source);
    {
      SsspOptions o;
      o.run = run;
      const SsspResult r = DistributedSssp(dg_, cluster_, o).run(source);
      out.push_back({"sssp", wire_totals(r.counters),
                     r.distances == sssp_oracle});
    }
    {
      DeltaSsspOptions o;
      o.run = run;
      const DeltaSsspResult r =
          DistributedDeltaSssp(dg_, cluster_, o).run(source);
      out.push_back({"delta_sssp", wire_totals(r.counters),
                     r.distances == sssp_oracle});
    }
    {
      BatchSsspOptions o;
      o.run = run;
      const BatchSsspResult r =
          DistributedBatchSssp(dg_, cluster_, o).run(sources_);
      bool ok = r.distances.size() == sources_.size();
      for (std::size_t lane = 0; ok && lane < sources_.size(); ++lane) {
        ok = r.distances[lane] == baseline::serial_sssp(host_, sources_[lane]);
      }
      out.push_back({"batch_sssp", wire_totals(r.counters), ok});
    }
    {
      BfsOptions o{.direction_optimized = false};
      o.run = run;
      const BatchBfsResult r =
          DistributedBatchBfs(dg_, cluster_, o).run(sources_);
      bool ok = r.metrics.lane_bits == 8 && r.distances.size() == 8;
      for (std::size_t lane = 0; ok && lane < sources_.size(); ++lane) {
        ok = r.distances[lane] == baseline::serial_bfs(host_, sources_[lane]);
      }
      out.push_back({"batch_bfs_w8", wire_totals(r.metrics.counters), ok});
    }
    {
      SchedulerOptions o;
      o.width = 8;
      o.run = run;
      const std::vector<QueryArrival> trace =
          make_arrival_trace(dg_, {.queries = 16, .rate = 2.0});
      const SchedulerOutcome r = QueryScheduler(dg_, cluster_, o).run(trace);
      bool ok = r.queries.size() == trace.size();
      for (const ServedQuery& q : r.queries) {
        ok = ok && q.distances == baseline::serial_bfs(host_, q.source);
      }
      out.push_back({"scheduler", wire_totals(r.metrics.run.counters), ok});
    }
    {
      BetweennessOptions o;
      o.run = run;
      const std::vector<VertexId> bc_sources(sources_.begin(),
                                             sources_.begin() + 4);
      const BetweennessResult r =
          BetweennessCentrality(dg_, cluster_, o).run(bc_sources);
      // The forward sigma records are the run's exchange; the reverse pass
      // ships its dependency triples over the raw transport.
      out.push_back({"betweenness", wire_totals(r.forward.counters),
                     r.scores == baseline::serial_brandes(
                                     host_, std::span<const VertexId>(
                                                bc_sources))});
    }
    return out;
  }

  graph::EdgeList graph_;
  graph::HostCsr host_;
  sim::ClusterSpec spec_;
  graph::DistributedGraph dg_;
  sim::Cluster cluster_;
  std::vector<VertexId> sources_;
};

TEST_F(WirePolicy, MergeOffReachesEveryExchange) {
  const std::vector<FacadeRun> runs = run_facades({.uniquify = false});
  ASSERT_EQ(runs.size(), 8u);
  for (const FacadeRun& f : runs) {
    SCOPED_TRACE(f.name);
    EXPECT_TRUE(f.matches_oracle);
    EXPECT_GT(f.wire.binned, 0u);  // the facade did exchange records
    EXPECT_EQ(f.wire.uniquified, 0u);
    EXPECT_EQ(f.wire.coded_bins, 0u);
  }
}

TEST_F(WirePolicy, MergeAndAdaptiveCodecReachEveryExchange) {
  const std::vector<FacadeRun> runs = run_facades(
      {.uniquify = true, .codec = comm::WireCodec::kAdaptive});
  ASSERT_EQ(runs.size(), 8u);
  for (const FacadeRun& f : runs) {
    SCOPED_TRACE(f.name);
    EXPECT_TRUE(f.matches_oracle);
    EXPECT_GT(f.wire.uniquified, 0u);
    EXPECT_GT(f.wire.coded_bins, 0u);
  }
}

}  // namespace
}  // namespace dsbfs::core
