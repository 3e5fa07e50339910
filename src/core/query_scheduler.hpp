#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

/// Serving tier: a streaming scheduler of single-source traversal queries
/// over the batched lane substrate (MS-BFS lane recycling).
///
/// DistributedBatchBfs runs one fixed <= 64-source batch to completion; a
/// serving system instead faces a *stream* of queries arriving over time.
/// QueryScheduler closes that gap on the same engine: queries arrive on a
/// deterministic, seeded trace (arrival times in engine-iteration ticks),
/// get packed into LaneBitset lanes as lanes free up, and each lane retires
/// the iteration its frontier drains -- detected per lane by a one-word
/// OR-allreduce of the still-pending lane bits at every boundary, the
/// replicated-control-state idiom the delta-stepping buckets established.
/// A freed lane is recycled mid-flight: its visited columns are cleared
/// (one word-level mask sweep, charged to the model like a checkpoint) and
/// the next waiting query's source is seeded into it, so lanes at different
/// depths share every sweep, reduction and exchange.
///
/// Traversal direction is forced push.  Under the level-synchronous push
/// invariant a lane's pending work is exactly its fresh next_normal /
/// received / delegate_new lane bits, which makes per-lane drain detection
/// airtight; union-frontier pull rounds gate launches globally and read
/// whole visited words, so per-lane retirement under hybrid direction is
/// left as future work (see docs/ALGORITHMS.md).
///
/// The API is query-kind-shaped, not BFS-shaped: a QueryArrival is a source
/// vertex plus an arrival tick, and ServedQuery reports distances -- an SSSP
/// lane substrate can slot in behind the same trace/metrics surface.
namespace dsbfs::core {

/// One query of an arrival trace: a single-source traversal request that
/// reaches the scheduler at `arrival_iteration` (engine-iteration ticks)
/// and is admissible from that iteration on.
struct QueryArrival {
  VertexId source = 0;
  std::uint64_t arrival_iteration = 0;
};

/// Arrival-process shapes for make_arrival_trace.
enum class ArrivalPattern {
  /// Evenly spaced at the offered rate (query i arrives at tick i/rate).
  kUniform,
  /// Seeded bursts: random-size groups arrive together, separated by idle
  /// gaps sized to keep the long-run offered rate.
  kBursty,
  /// Adversarial single-lane trickle: one query every max(1, 1/rate) ticks,
  /// so wide batches never fill -- the worst case for amortization.
  kTrickle,
};

struct ArrivalTraceConfig {
  std::uint64_t queries = 64;
  /// Mean arrivals per engine iteration (the offered load).
  double rate = 4.0;
  ArrivalPattern pattern = ArrivalPattern::kUniform;
  std::uint64_t seed = 1;
};

/// Deterministic seeded arrival trace: sources drawn from the Graph500
/// sampling pool, arrival ticks shaped by the pattern.  Same graph + config
/// => the identical trace, on every GPU and every run.
std::vector<QueryArrival> make_arrival_trace(
    const graph::DistributedGraph& graph, const ArrivalTraceConfig& config);

struct SchedulerOptions {
  /// Lane budget: queries concurrently in flight, 1..64.  Lane storage is
  /// quantized to util::lane_width_for(width); only `width` lanes are used.
  std::size_t width = 64;
  /// Mid-flight lane recycling: a retired lane is re-seeded with the next
  /// waiting query at the same boundary.  Off = batch-drain admission (the
  /// ablation baseline): new queries start only once every lane drained.
  bool recycle = true;
  /// Overlap, routing, resilience and the lane-update exchange's OR
  /// coalescing (see BatchBfsOptions).
  engine::RunOptions run{};
  /// Wire encoding of the (id, lane-word) payload.
  comm::WireCodec codec = comm::WireCodec::kRaw;
  /// Blocking vs non-blocking delegate-mask reduction.
  comm::ReduceMode reduce_mode = comm::ReduceMode::kBlocking;
};

/// Replicated audit log of lane ownership transitions: every GPU derives
/// the identical sequence from the agreed drain words and the shared trace
/// (the run cross-checks this).  Tests use it to prove no lane ever serves
/// two queries at once.
enum class LaneEventKind { kAdmit, kRetire };
struct LaneEvent {
  LaneEventKind kind = LaneEventKind::kAdmit;
  /// Engine iteration of the transition: kAdmit = first iteration the lane
  /// carries the query's frontier; kRetire = the iteration whose boundary
  /// agreement observed the lane drained.
  std::uint64_t iteration = 0;
  int lane = -1;
  /// Index into the arrival trace.
  std::size_t query = 0;
};

/// One completed query as the scheduler reports it.
struct ServedQuery {
  VertexId source = 0;
  std::uint64_t arrival_iteration = 0;
  /// First engine iteration whose sweep carried this query's frontier.
  std::uint64_t admit_iteration = 0;
  /// Iteration whose boundary agreement retired the lane.
  std::uint64_t retire_iteration = 0;
  int lane = -1;
  /// Modeled timeline (PerfModel iteration-end timestamps, ms from run
  /// start): when the query arrived, entered a lane, and finished.
  double arrival_ms = 0;
  double admit_ms = 0;
  double retire_ms = 0;
  double wait_ms = 0;     // admission queueing: admit - arrival
  double service_ms = 0;  // in-flight: retire - admit
  double latency_ms = 0;  // end-to-end: retire - arrival
  /// Hop distances from `source` (kUnvisited when unreachable) -- exactly
  /// baseline::serial_bfs(source).
  std::vector<Depth> distances;
};

/// Percentile summary of one latency component across the trace's queries.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double mean = 0;
  double max = 0;
};

/// Sort-based percentiles (util::percentile: linear interpolation between
/// order statistics); all-zero for an empty input.
LatencySummary summarize_latencies(std::vector<double> values);

/// First-class serving metrics next to the engine's RunMetrics.
struct SchedulerMetrics {
  std::uint64_t queries = 0;
  /// Modeled throughput: queries / run.modeled_ms (the serving makespan).
  double queries_per_sec = 0;
  LatencySummary latency;  // end-to-end
  LatencySummary wait;     // admission queueing
  LatencySummary service;  // in-flight
  /// Lane-ownership churn: total admissions (== queries) and how many of
  /// them re-seeded a previously used lane (a reseed mask sweep each).
  std::uint64_t admissions = 0;
  std::uint64_t recycled_admissions = 0;
  /// Visited-state bytes swept by those reseeds, as charged to the model.
  std::uint64_t reseed_bytes = 0;
  /// Mean occupied lanes per logical iteration (the serving analogue of the
  /// batch width: how much each shared sweep was amortized).
  double mean_occupancy = 0;
  /// The underlying engine run, PerfModel-replayed like every other
  /// algorithm (RunMetrics::modeled.iteration_end_ms timestamps the per-
  /// query latencies above; lane_bits is the lane storage width W,
  /// lane_width_for(options.width)).
  RunMetrics run;
};

struct SchedulerOutcome {
  /// One entry per trace query, in trace order; every entry is retired.
  std::vector<ServedQuery> queries;
  /// Replicated lane-ownership audit log, in boundary order.
  std::vector<LaneEvent> events;
  SchedulerMetrics metrics;
};

class QueryScheduler {
 public:
  /// `graph` and `cluster` must outlive the scheduler and share spec.
  QueryScheduler(const graph::DistributedGraph& graph, sim::Cluster& cluster,
                 SchedulerOptions options = {});

  const SchedulerOptions& options() const noexcept { return options_; }

  /// Serve one arrival trace to completion.  The trace must be sorted by
  /// arrival_iteration (make_arrival_trace's output is); an empty trace is
  /// legal and runs one idle tick.  Collective over all simulated GPUs;
  /// callable repeatedly.
  SchedulerOutcome run(std::span<const QueryArrival> trace);

  /// Pick the k-th deterministic pseudo-random source with at least one
  /// out-edge (identical to DistributedBfs::sample_source).
  VertexId sample_source(std::uint64_t k) const;

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  SchedulerOptions options_;
};

}  // namespace dsbfs::core
