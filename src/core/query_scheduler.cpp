#include "core/query_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/bfs.hpp"
#include "core/lane_pipeline.hpp"
#include "engine/iterative_engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dsbfs::core {

std::vector<QueryArrival> make_arrival_trace(
    const graph::DistributedGraph& graph, const ArrivalTraceConfig& config) {
  if (config.rate <= 0) {
    throw std::invalid_argument("arrival rate must be positive");
  }
  std::vector<QueryArrival> trace;
  trace.reserve(config.queries);
  const util::CounterRng rng(config.seed, /*stream=*/0x5e21);
  // Even draw indices pick sources, odd ones shape arrivals: every draw is
  // addressable, so the trace is identical no matter who generates it.
  const auto source_at = [&](std::uint64_t i) {
    return sample_traversal_source(graph, rng.bits(2 * i));
  };
  switch (config.pattern) {
    case ArrivalPattern::kUniform:
      for (std::uint64_t i = 0; i < config.queries; ++i) {
        const auto tick = static_cast<std::uint64_t>(
            static_cast<double>(i) / config.rate);
        trace.push_back({source_at(i), tick});
      }
      break;
    case ArrivalPattern::kBursty: {
      // Random-size bursts ~ U[1, 2*mean] every `gap` ticks, the mean sized
      // so the long-run offered rate matches `rate`.
      const std::uint64_t gap = 4;
      const auto mean_burst = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(
                 config.rate * static_cast<double>(gap))));
      std::uint64_t i = 0;
      std::uint64_t tick = 0;
      std::uint64_t draw = 0;
      while (i < config.queries) {
        const std::uint64_t burst = 1 + rng.below(2 * draw + 1, 2 * mean_burst);
        ++draw;
        for (std::uint64_t b = 0; b < burst && i < config.queries; ++b, ++i) {
          trace.push_back({source_at(i), tick});
        }
        tick += gap;
      }
      break;
    }
    case ArrivalPattern::kTrickle: {
      const auto stride = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(1.0 / config.rate)));
      for (std::uint64_t i = 0; i < config.queries; ++i) {
        trace.push_back({source_at(i), i * stride});
      }
      break;
    }
  }
  return trace;
}

LatencySummary summarize_latencies(std::vector<double> values) {
  LatencySummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.mean = util::arithmetic_mean(values);
  s.max = util::max_of(values);
  s.p50 = util::percentile(values, 50);
  s.p95 = util::percentile(values, 95);
  s.p99 = util::percentile(std::move(values), 99);
  return s;
}

namespace {

constexpr std::int64_t kNoQuery = -1;

/// Replicated scheduler control state.  Every GPU advances an identical
/// copy from the agreed drain word and the shared read-only trace, so the
/// retire/admit protocol needs no coordination beyond the one-word boundary
/// agreement -- the replicated-state-machine idiom of the engine's control
/// allreduce.  Only `fragments` differs per GPU (each GPU's harvested slice
/// of a retired query's distances); the facade cross-checks the rest.
struct SchedulerCore {
  struct Query {
    VertexId source = 0;
    std::uint64_t arrival_iteration = 0;
    int lane = -1;
    std::int64_t admit_iteration = -1;
    std::int64_t retire_iteration = -1;
    // Executed-history row indices of the three transitions
    // (GpuContext::history_row at the boundary; -1 = before iteration 0),
    // resolved to modeled timestamps after the replay.
    std::int64_t arrival_row = -1;
    std::int64_t admit_row = -1;
    std::int64_t retire_row = -1;
    bool done = false;
  };
  std::vector<Query> queries;       // trace order
  std::size_t next_noticed = 0;     // first query not yet past its tick
  std::size_t next_admit = 0;       // first query not yet admitted (FIFO)
  std::size_t completed = 0;
  std::vector<std::int64_t> lane_owner;    // per lane; kNoQuery = free
  std::uint64_t occupied = 0;              // lane occupancy word
  std::uint64_t lanes_used = 0;            // lanes that ever held a query
  std::uint64_t pending_reseed_bytes = 0;  // charged to the next iteration
  std::uint64_t reseed_bytes_total = 0;
  std::uint64_t admissions = 0;
  std::uint64_t recycled = 0;
  std::vector<LaneEvent> events;
  /// This GPU's slice of each retired query: (global vertex, distance).
  std::vector<std::vector<std::pair<VertexId, Depth>>> fragments;
};

/// The serving scheduler's per-GPU state: the lanes plus the replicated
/// scheduler core.
struct ServingState : LaneState {
  ServingState(const graph::LocalGraph& lg, int total_gpus, int lane_bits)
      : LaneState(lg, total_gpus, lane_bits, /*record_parents=*/false) {}

  SchedulerCore sched;
};

/// The serving scheduler as an engine algorithm: the BFS pipeline (forced
/// push) plus, at every end_iteration, the one-word lane-drain agreement
/// followed by replicated retire/harvest/admit/reseed transitions.  Lanes
/// at different depths share each sweep; a lane's stored depths are raw
/// engine iterations, normalized by the occupying query's admit iteration
/// at harvest.
class ServingAlgorithm : public LanePipeline<ServingState> {
 public:
  static constexpr const char* kStateLabel = "query_scheduler.state";

  ServingAlgorithm(const graph::DistributedGraph& graph,
                   const SchedulerOptions& options,
                   std::span<const QueryArrival> trace)
      : LanePipeline(/*local_all2all=*/false),
        graph_(graph), options_(options), trace_(trace),
        lane_budget_mask_(options.width >= 64
                              ? ~0ULL
                              : (1ULL << options.width) - 1) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    auto state = std::make_unique<State>(graph_.local(ctx.gpu),
                                         ctx.total_gpus,
                                         util::lane_width_for(options_.width));
    state->direction_optimized = false;  // forced push (header comment)
    state->batch_mask = 0;  // tracks occupied lanes as queries admit

    SchedulerCore& q = state->sched;
    q.queries.resize(trace_.size());
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      q.queries[i].source = trace_[i].source;
      q.queries[i].arrival_iteration = trace_[i].arrival_iteration;
    }
    q.lane_owner.assign(options_.width, kNoQuery);
    q.fragments.resize(trace_.size());
    // Boundary "-1": admit whatever already arrived at tick 0.
    admit_waiting(ctx, *state, /*boundary=*/-1);
    return state;
  }

  void previsit(engine::GpuContext& ctx, State& s, int iteration) {
    LanePipeline::previsit(ctx, s, iteration);
    // Reseeds decided at the previous boundary gate this iteration's
    // kernels; the charge lands on this row.
    s.iter.reseed_bytes = s.sched.pending_reseed_bytes;
    s.sched.pending_reseed_bytes = 0;
  }

  bool end_iteration(engine::GpuContext& ctx, State& s, int iteration,
                     std::uint64_t) {
    close_iteration(ctx, s);

    // ---- Per-lane drain agreement.  Under forced push the boundary's
    // pending work is exactly: fresh dn-claimed lanes (next_normal carries
    // only first-touch bits), exchange arrivals not yet seen, and newly
    // visited delegates with out-edges somewhere (each GPU contributes its
    // local out-degree knowledge; the OR settles "somewhere").  A lane with
    // no pending bit anywhere has a fully drained frontier. ----------------
    std::uint64_t pending = s.unseen_arrival_lanes();
    for (const LocalId v : s.next_local) {
      pending |= s.next_normal.lanes(v);
    }
    const graph::LocalGraph& lg = s.graph();
    s.delegate_new.for_each_nonzero_lanes([&](std::size_t t,
                                               std::uint64_t w) {
      if (lg.dd().row_length(t) == 0 && lg.dn().row_length(t) == 0) return;
      pending |= w;
    });
    ctx.comm.allreduce_or_words(
        ctx.gpu, std::span<std::uint64_t>(&pending, 1),
        engine::TagBlocks::user(iteration, 1));
    s.iter.lane_agreement = true;

    // ---- Retire drained lanes, then admit into the freed ones (same
    // boundary: a retired lane is immediately recyclable). ----------------
    SchedulerCore& q = s.sched;
    for (std::uint64_t b = q.occupied & ~pending; b != 0; b &= b - 1) {
      retire_lane(ctx, s, std::countr_zero(b), iteration);
    }
    admit_waiting(ctx, s, iteration);

    return q.occupied == 0 && q.next_admit == q.queries.size();
  }

 private:
  /// Harvest the retiring lane's distances into the query's fragment list
  /// (this GPU's normal slice; GPU 0 also the replicated delegates), then
  /// free the lane.  Runs before any same-boundary admission clears it.
  void retire_lane(engine::GpuContext& ctx, State& st, int lane,
                   int iteration) {
    LaneState& s = st;
    SchedulerCore& q = st.sched;
    const auto li = static_cast<std::size_t>(lane);
    const std::int64_t qi = q.lane_owner[li];
    assert(qi != kNoQuery && "retiring an unowned lane");
    SchedulerCore::Query& r = q.queries[static_cast<std::size_t>(qi)];
    const std::uint64_t bit = 1ULL << lane;
    const Depth base = static_cast<Depth>(r.admit_iteration);
    const sim::ClusterSpec& spec = graph_.spec();

    auto& frag = q.fragments[static_cast<std::size_t>(qi)];
    const std::uint64_t n_local = s.graph().num_local_normals();
    for (std::uint64_t v = 0; v < n_local; ++v) {
      if ((s.seen_normal.lanes(v) & bit) == 0) continue;
      frag.emplace_back(spec.global_vertex(ctx.me.rank, ctx.me.gpu, v),
                        s.lane_depth(v, lane) - base);
    }
    if (ctx.gpu == 0) {
      for (LocalId t = 0; t < graph_.num_delegates(); ++t) {
        if ((s.delegate_visited.lanes(t) & bit) == 0) continue;
        frag.emplace_back(graph_.delegates().vertex_of(t),
                          s.depth_delegate[s.slot(t, lane)] - base);
      }
    }

    r.retire_iteration = iteration;
    r.retire_row = static_cast<std::int64_t>(ctx.history_row);
    r.done = true;
    q.lane_owner[li] = kNoQuery;
    q.occupied &= ~bit;
    s.batch_mask &= ~bit;
    ++q.completed;
    q.events.push_back({LaneEventKind::kRetire,
                        static_cast<std::uint64_t>(iteration), lane,
                        static_cast<std::size_t>(qi)});
  }

  /// Mark arrivals up to the post-boundary tick, then admit waiting queries
  /// FIFO into free lanes (or, without recycling, only into a fully drained
  /// batch).  `boundary` is the iteration just ended (-1 at init).
  void admit_waiting(engine::GpuContext& ctx, State& st,
                     std::int64_t boundary) {
    SchedulerCore& q = st.sched;
    const auto tick = static_cast<std::uint64_t>(boundary + 1);
    while (q.next_noticed < q.queries.size() &&
           q.queries[q.next_noticed].arrival_iteration <= tick) {
      q.queries[q.next_noticed].arrival_row =
          boundary < 0 ? -1 : static_cast<std::int64_t>(ctx.history_row);
      ++q.next_noticed;
    }
    if (!options_.recycle && q.occupied != 0) return;
    while (q.next_admit < q.queries.size() &&
           q.queries[q.next_admit].arrival_iteration <= tick &&
           (~q.occupied & lane_budget_mask_) != 0) {
      const int lane = std::countr_zero(~q.occupied & lane_budget_mask_);
      admit_into_lane(ctx, st, q.next_admit, lane, boundary);
      ++q.next_admit;
    }
  }

  void admit_into_lane(engine::GpuContext& ctx, State& st, std::size_t qi,
                       int lane, std::int64_t boundary) {
    LaneState& s = st;
    SchedulerCore& q = st.sched;
    SchedulerCore::Query& r = q.queries[qi];
    const std::uint64_t bit = 1ULL << lane;
    assert((q.occupied & bit) == 0 && "admitting into an occupied lane");

    // Recycling a used lane: clear its visited, nn sent and depth-plane
    // columns (one word-level mask sweep per bitset, every GPU identically;
    // the reseed charge models the device's visited and sent masks) and
    // scrub the stale lane bits that survive a boundary -- `received`
    // duplicates already seen by the previous occupant would otherwise
    // claim the cleared lane at the next previsit, sink-delegate
    // `delegate_new` bits would inflate the previsit counters, and a stale
    // `sent` bit would keep the new occupant's nn visit from shipping.
    if ((q.lanes_used & bit) != 0) {
      s.seen_normal.clear_lanes(bit);
      s.sent.clear_lanes(bit);
      s.delegate_visited.clear_lanes(bit);
      s.delegate_new.clear_lanes(bit);
      for (util::LaneBitset& plane : s.depth_planes) {
        plane.clear_lanes(bit);
      }
      s.clear_arrival_lanes(bit);
      const std::uint64_t bytes =
          s.seen_normal.byte_size() + s.sent.byte_size() +
          s.delegate_visited.byte_size() + s.delegate_new.byte_size();
      q.pending_reseed_bytes += bytes;
      q.reseed_bytes_total += bytes;
      ++q.recycled;
    }
    q.lanes_used |= bit;

    // Seed the source exactly like a batch init, at the admission depth
    // (the next normal previsit, which runs at that depth, stamps a normal
    // source).
    s.seed(lane, r.source, graph_.delegates().delegate_id(r.source),
           static_cast<Depth>(boundary + 1));

    s.batch_mask |= bit;
    q.occupied |= bit;
    q.lane_owner[static_cast<std::size_t>(lane)] =
        static_cast<std::int64_t>(qi);
    r.lane = lane;
    r.admit_iteration = boundary + 1;
    r.admit_row =
        boundary < 0 ? -1 : static_cast<std::int64_t>(ctx.history_row);
    ++q.admissions;
    q.events.push_back({LaneEventKind::kAdmit,
                        static_cast<std::uint64_t>(boundary + 1), lane, qi});
  }

  const graph::DistributedGraph& graph_;
  const SchedulerOptions& options_;
  std::span<const QueryArrival> trace_;
  std::uint64_t lane_budget_mask_;
};

}  // namespace

QueryScheduler::QueryScheduler(const graph::DistributedGraph& graph,
                               sim::Cluster& cluster,
                               SchedulerOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
  if (options_.width < 1 || options_.width > 64) {
    throw std::invalid_argument("scheduler width must be 1..64");
  }
}

VertexId QueryScheduler::sample_source(std::uint64_t k) const {
  return sample_traversal_source(graph_, k);
}

SchedulerOutcome QueryScheduler::run(std::span<const QueryArrival> trace) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].source >= graph_.num_vertices()) {
      throw std::out_of_range("scheduler query source out of range");
    }
    if (i > 0 && trace[i].arrival_iteration < trace[i - 1].arrival_iteration) {
      throw std::invalid_argument(
          "arrival trace must be sorted by arrival_iteration");
    }
  }
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();
  const int lane_bits = util::lane_width_for(options_.width);

  ServingAlgorithm algo(graph_, options_, trace);
  engine::IterativeEngine<ServingAlgorithm> engine(graph_, cluster_,
                                                   options_.run);
  auto run = engine.run(algo);

  // ---- Model replay first: the per-query timestamps come from it. -------
  RunMetrics rm = assemble_metrics(graph_, options_.run.overlap,
                                   comm::ReduceMode::kBlocking,
                                   std::move(run.histories), run.measured_ms,
                                   std::move(run.fault), lane_bits);

  // ---- Cross-check the replicated control state: every GPU must have
  // derived the identical schedule (the claim-word audit's foundation). ---
  const SchedulerCore& q0 = run.state(0).sched;
  for (int g = 1; g < p; ++g) {
    const SchedulerCore& qg = run.state(g).sched;
    bool same = qg.queries.size() == q0.queries.size() &&
                qg.events.size() == q0.events.size();
    for (std::size_t i = 0; same && i < q0.queries.size(); ++i) {
      same = qg.queries[i].lane == q0.queries[i].lane &&
             qg.queries[i].admit_iteration == q0.queries[i].admit_iteration &&
             qg.queries[i].retire_iteration == q0.queries[i].retire_iteration &&
             qg.queries[i].done && q0.queries[i].done;
    }
    if (!same) {
      throw std::logic_error(
          "query scheduler: replicated control state diverged across GPUs");
    }
  }

  // ---- Assemble per-query results and the latency distributions. --------
  SchedulerOutcome out;
  out.events = q0.events;
  const auto ms_of_row = [&rm](std::int64_t row) {
    return row < 0 ? 0.0
                   : rm.modeled.iteration_end_ms[static_cast<std::size_t>(row)];
  };
  std::vector<double> latencies, waits, services;
  latencies.reserve(trace.size());
  waits.reserve(trace.size());
  services.reserve(trace.size());
  double occupancy_iterations = 0;
  out.queries.resize(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const SchedulerCore::Query& r = q0.queries[i];
    ServedQuery& sq = out.queries[i];
    sq.source = r.source;
    sq.arrival_iteration = r.arrival_iteration;
    sq.admit_iteration = static_cast<std::uint64_t>(r.admit_iteration);
    sq.retire_iteration = static_cast<std::uint64_t>(r.retire_iteration);
    sq.lane = r.lane;
    sq.arrival_ms = ms_of_row(r.arrival_row);
    sq.admit_ms = ms_of_row(r.admit_row);
    sq.retire_ms = ms_of_row(r.retire_row);
    sq.wait_ms = sq.admit_ms - sq.arrival_ms;
    sq.service_ms = sq.retire_ms - sq.admit_ms;
    sq.latency_ms = sq.retire_ms - sq.arrival_ms;
    sq.distances.assign(graph_.num_vertices(), kUnvisited);
    for (int g = 0; g < p; ++g) {
      for (const auto& [vertex, depth] : run.state(g).sched.fragments[i]) {
        sq.distances[vertex] = depth;
      }
    }
    latencies.push_back(sq.latency_ms);
    waits.push_back(sq.wait_ms);
    services.push_back(sq.service_ms);
    occupancy_iterations +=
        static_cast<double>(r.retire_iteration - r.admit_iteration + 1);
  }

  SchedulerMetrics m;
  m.queries = trace.size();
  m.queries_per_sec = rm.modeled_ms > 0 && m.queries > 0
                          ? static_cast<double>(m.queries) /
                                (rm.modeled_ms / 1000.0)
                          : 0.0;
  m.latency = summarize_latencies(std::move(latencies));
  m.wait = summarize_latencies(std::move(waits));
  m.service = summarize_latencies(std::move(services));
  m.admissions = q0.admissions;
  m.recycled_admissions = q0.recycled;
  m.reseed_bytes = q0.reseed_bytes_total;
  m.mean_occupancy =
      run.iterations > 0 ? occupancy_iterations / run.iterations : 0.0;
  m.run = std::move(rm);
  out.metrics = std::move(m);
  return out;
}

}  // namespace dsbfs::core
