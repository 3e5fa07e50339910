#include "core/bfs.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/frontier.hpp"
#include "core/packing.hpp"
#include "core/previsit.hpp"
#include "core/visit.hpp"
#include "engine/iterative_engine.hpp"
#include "sim/stream.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"

namespace dsbfs::core {

namespace {

// Control-word packing (kDelegateFlagUnit) is shared with the batched BFS
// and lives in core/frontier.hpp.

/// The paper's BFS expressed as engine phases (Fig. 3 pipeline): previsit
/// forms the queues, visit enqueues the four kernels on the engine's two
/// streams, the engine enqueues the exchange hook behind them on the normal
/// stream, contribution joins the delegate stream for the control word, and
/// the post-control mask reduction overlaps the exchange still running on
/// the normal stream.
class BfsAlgorithm {
 public:
  static constexpr const char* kStateLabel = "bfs.state";

  struct State {
    State(const graph::LocalGraph& lg, int total_gpus, bool record_parents)
        : gpu(lg, total_gpus, record_parents) {}

    GpuState gpu;
    sim::Event bins_ready;
    std::uint64_t bins_total = 0;
  };

  BfsAlgorithm(const graph::DistributedGraph& graph, const BfsOptions& options,
               VertexId source)
      : graph_(graph), options_(options), source_(source) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    auto state = std::make_unique<State>(graph_.local(ctx.gpu), ctx.total_gpus,
                                         options_.compute_parents);
    GpuState& s = state->gpu;
    s.dir_dd = DirectionState(options_.dd_factors);
    s.dir_dn = DirectionState(options_.dn_factors);
    s.dir_nd = DirectionState(options_.nd_factors);

    // Seed the source.
    const LocalId src_delegate = graph_.delegates().delegate_id(source_);
    if (src_delegate != kInvalidLocal) {
      s.delegate_new.set_unsynchronized(src_delegate);
      s.delegate_visited.set_unsynchronized(src_delegate);
      s.level_delegate[src_delegate] = 0;
      if (s.record_parents) s.parent_delegate_dd[src_delegate] = source_;
      if (graph_.local(ctx.gpu).dd_source_mask().test(src_delegate)) {
        --s.unvisited_dd_sources;
      }
      if (graph_.local(ctx.gpu).dn_source_mask().test(src_delegate)) {
        --s.unvisited_dn_sources;
      }
    } else if (spec.owner_global_gpu(source_) == ctx.gpu) {
      const LocalId local = static_cast<LocalId>(spec.local_index(source_));
      s.level_normal[local] = 0;
      if (s.record_parents) s.parent_normal[local] = source_;
      s.next_local.push_back(local);
    }
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext& ctx,
                            const State& s) const {
    // Level arrays plus three delegate masks (the historic figure: visited,
    // new and one out-mask; it feeds the checkpoint model, so the
    // per-stream split of the out-mask does not change it).
    return graph_.local(ctx.gpu).num_local_normals() * sizeof(Depth) +
           static_cast<std::uint64_t>(graph_.num_delegates()) * sizeof(Depth) +
           3 * s.gpu.delegate_visited.byte_size();
  }

  void previsit(engine::GpuContext&, State& s, int) {
    s.gpu.begin_iteration();
    // Queue formation, dedup, workload estimation, direction decisions --
    // sequential per GPU, ahead of the stream kernels.
    delegate_previsit(s.gpu, options_);
    normal_previsit(s.gpu, options_);
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    GpuState& gs = s.gpu;

    // Delegate stream: dd then dn visits.
    ctx.delegate_stream.enqueue([&gs] { visit_dd(gs); });
    ctx.delegate_stream.enqueue([&gs] { visit_dn(gs); });

    // Normal stream: nd, nn, then bin accounting (the engine enqueues the
    // exchange hook behind these).
    const sim::ClusterSpec& spec = ctx.comm.spec();
    ctx.normal_stream.enqueue([&gs] { visit_nd(gs); });
    ctx.normal_stream.enqueue([&gs, &spec] { visit_nn(gs, spec); });
    s.bins_ready = ctx.normal_stream.record([&s] {
      s.bins_total = 0;
      for (const auto& bin : s.gpu.bins) s.bins_total += bin.size();
    });
  }

  void reduce(engine::GpuContext&, State&, int) {}  // post-control only

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    // Runs on the normal stream behind the visits (the engine enqueues this
    // hook there); overlaps the post-control mask reduction.  The consumed
    // receive buffer becomes the next round's loopback bin.
    const engine::RunOptions& run = options_.run;
    const comm::ExchangeOptions xopts{.local_all2all = options_.local_all2all,
                                      .uniquify = run.uniquify,
                                      .topology = run.exchange_topology,
                                      .retry = run.resilience.retry};
    engine::adopt_received(s.gpu.bins, ctx.gpu, s.gpu.received,
                           ctx.comm.exchange_ids(ctx.me, s.gpu.bins, iteration,
                                                 xopts, s.gpu.iter));
  }

  std::uint64_t contribution(engine::GpuContext& ctx, State& s, int) {
    // Join the delegate stream and the bin accounting; the exchange keeps
    // running on the normal stream through the control allreduce.
    ctx.delegate_stream.synchronize();
    s.bins_ready.wait();
    return (s.gpu.has_delegate_updates() ? kDelegateFlagUnit : 0) +
           static_cast<std::uint64_t>(s.gpu.next_local.size()) + s.bins_total;
  }

  void post_reduce(engine::GpuContext& ctx, State& s, int iteration,
                   std::uint64_t control) {
    GpuState& gs = s.gpu;
    // Delegate mask reduction (overlaps the normal exchange).
    if (control >= kDelegateFlagUnit) {
      gs.iter.delegate_update = true;
      util::AtomicBitset reduced = gs.delegate_visited;
      reduced.or_with(gs.delegate_out_dd);
      reduced.or_with(gs.delegate_out_nd);
      ctx.comm.mask_reducer().reduce(ctx.me, reduced, iteration,
                                     options_.reduce_mode);
      util::AtomicBitset::diff_into(reduced, gs.delegate_visited,
                                    gs.delegate_new);
      gs.delegate_visited = reduced;

      const graph::LocalGraph& lg = graph_.local(ctx.gpu);
      const Depth next_depth = gs.depth + 1;
      gs.delegate_new.for_each_set([&](std::size_t t) {
        gs.level_delegate[t] = next_depth;
        if (lg.dd_source_mask().test(t)) --gs.unvisited_dd_sources;
        if (lg.dn_source_mask().test(t)) --gs.unvisited_dn_sources;
      });
    } else {
      gs.delegate_new.clear_all();
    }
  }

  bool end_iteration(engine::GpuContext& ctx, State& s, int,
                     std::uint64_t control) {
    ctx.normal_stream.synchronize();  // exchange complete; gpu.received filled
    s.gpu.end_iteration();
    if (options_.direction_optimized && options_.adaptive_direction) {
      // Fold this iteration's realized kernel rates into the controller
      // before the next previsit re-derives the factors from them.
      s.gpu.controller.observe(s.gpu.iter);
    }
    s.gpu.depth += 1;
    const bool any_delegate_update = control >= kDelegateFlagUnit;
    const std::uint64_t normal_work = control % kDelegateFlagUnit;
    return !any_delegate_update && normal_work == 0;
  }

  sim::GpuIterationCounters iteration_counters(const State& s) const {
    return s.gpu.iter;
  }

  /// BFS-tree completion (Section VI-A3): traversal sent 4-byte ids only,
  /// so vertices discovered through nn edges do not know their parent yet;
  /// one extra exchange resolves them.  Delegates may have been discovered
  /// on another GPU; one min-reduction of global parent ids settles every
  /// copy identically.
  void finalize(engine::GpuContext& ctx, State& state, int iterations) {
    if (!options_.compute_parents) return;
    GpuState& s = state.gpu;
    const sim::ClusterSpec& spec = graph_.spec();
    const sim::VertexRouter router(spec);
    const int p = ctx.total_gpus;
    const int g = ctx.gpu;
    const sim::GpuCoord me = ctx.me;
    comm::Transport& transport = ctx.comm.transport();
    const graph::LocalGraph& lg = graph_.local(g);
    const std::uint64_t n_local = lg.num_local_normals();
    const int parent_block = engine::TagBlocks::after_loop(iterations);
    const int parent_tag = engine::TagBlocks::user(parent_block);

    // Pack (dest_local, my_level) + my_global for every nn edge out of a
    // visited vertex; the receiver accepts the first sender exactly one
    // level above it.
    std::vector<std::vector<std::uint64_t>> tuples(static_cast<std::size_t>(p));
    for (std::uint64_t v = 0; v < n_local; ++v) {
      const Depth lvl = s.level_normal[v];
      if (lvl == kUnvisited) continue;
      const VertexId v_global = spec.global_vertex(me.rank, me.gpu, v);
      for (const VertexId dst : lg.nn().row(v)) {
        const auto [owner, local] = router.split(dst);
        auto& bin = tuples[static_cast<std::size_t>(owner)];
        bin.push_back(pack_parent_probe(local, lvl));
        bin.push_back(v_global);
      }
    }
    auto apply_tuples = [&](const std::vector<std::uint64_t>& words) {
      for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
        const LocalId local = parent_probe_local(words[i]);
        const Depth lvl = parent_probe_level(words[i]);
        // Min over all senders one level up, not first-sender-wins: probe
        // arrival order depends on the exchange topology, the id minimum
        // does not.  Eligible slots are unresolved nn discoveries
        // (kParentViaNn) or already probe-resolved untagged ids; a
        // delegate-claimed parent (tag bit set) keeps its deterministic
        // claim.  The seeded source is safe: its level 0 never matches
        // lvl + 1.
        const VertexId cur = s.parent_normal[local];
        if ((cur == kParentViaNn || (cur & kParentDelegateTag) == 0) &&
            s.level_normal[local] == lvl + 1 && words[i + 1] < cur) {
          s.parent_normal[local] = words[i + 1];
        }
      }
    };
    for (int o = 0; o < p; ++o) {
      if (o == g) continue;
      transport.send(g, o, parent_tag,
                     std::move(tuples[static_cast<std::size_t>(o)]));
    }
    apply_tuples(tuples[static_cast<std::size_t>(g)]);
    for (int o = 0; o < p; ++o) {
      if (o == g) continue;
      apply_tuples(transport.recv(g, o, parent_tag));
    }

    // Delegate parents: the min of the two streams' encoded candidates ->
    // global ids -> min-reduce, left in parent_delegate_dd.
    const LocalId d = graph_.num_delegates();
    std::vector<std::uint64_t> parents(d);
    for (LocalId t = 0; t < d; ++t) {
      VertexId enc =
          std::min(s.parent_delegate_dd[t], s.parent_delegate_nd[t]);
      if (enc != kParentNone && (enc & kParentDelegateTag) != 0) {
        enc = graph_.delegates().vertex_of(
            static_cast<LocalId>(enc & ~kParentDelegateTag));
      }
      parents[t] = enc;  // kParentNone == UINT64_MAX: identity for min
    }
    if (p > 1) {
      ctx.comm.allreduce_min_words(
          g, parents, engine::TagBlocks::user(parent_block, 4));
    }
    s.parent_delegate_dd = std::move(parents);
  }

 private:
  const graph::DistributedGraph& graph_;
  const BfsOptions& options_;
  VertexId source_;
};

}  // namespace

DistributedBfs::DistributedBfs(const graph::DistributedGraph& graph,
                               sim::Cluster& cluster, BfsOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
}

VertexId sample_traversal_source(const graph::DistributedGraph& graph,
                                 std::uint64_t k) {
  const VertexId n = graph.num_vertices();
  const auto& degrees = graph.degrees();
  // The draw loop below only ends on a vertex with an out-edge.
  if (std::none_of(degrees.begin(), degrees.end(),
                   [](auto deg) { return deg > 0; })) {
    throw std::invalid_argument(
        "sample_traversal_source: no vertex has an out-edge");
  }
  for (std::uint64_t attempt = 0;; ++attempt) {
    const VertexId v = util::splitmix64(util::hash_combine(k, attempt)) % n;
    if (degrees[v] > 0) return v;
  }
}

VertexId DistributedBfs::sample_source(std::uint64_t k) const {
  return sample_traversal_source(graph_, k);
}

BfsResult DistributedBfs::run(VertexId source) {
  if (source >= graph_.num_vertices()) {
    throw std::out_of_range("bfs source out of range");
  }
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();

  BfsAlgorithm algo(graph_, options_, source);
  engine::IterativeEngine<BfsAlgorithm> engine(graph_, cluster_, options_.run);
  auto run = engine.run(algo);

  // ---- Gather distances and metrics on the host. -----------------------
  // Normal vertices, in parallel over tiles of each GPU's local vertices.
  // Never-visited slots hold kUnvisited / kParentNone (== kInvalidVertex),
  // the result's own defaults, so every slot is copied without a visited
  // test; tiles write disjoint global ids.
  BfsResult result;
  result.distances.assign(graph_.num_vertices(), kUnvisited);
  if (options_.compute_parents) {
    result.parents.assign(graph_.num_vertices(), kInvalidVertex);
  }
  constexpr std::uint64_t kGatherTile = 4096;
  struct GatherTile {
    int gpu;
    std::uint64_t begin, end;
  };
  std::vector<GatherTile> tiles;
  for (int g = 0; g < p; ++g) {
    const std::uint64_t n_local = graph_.local(g).num_local_normals();
    for (std::uint64_t v = 0; v < n_local; v += kGatherTile) {
      tiles.push_back({g, v, std::min(n_local, v + kGatherTile)});
    }
  }
  util::parallel_tasks(tiles.size(), [&](std::size_t i) {
    const GatherTile& tile = tiles[i];
    const GpuState& s = run.state(tile.gpu).gpu;
    const sim::GpuCoord me = spec.coord_of(tile.gpu);
    for (std::uint64_t v = tile.begin; v < tile.end; ++v) {
      result.distances[spec.global_vertex(me.rank, me.gpu, v)] =
          s.level_normal[v];
    }
    if (!options_.compute_parents) return;
    for (std::uint64_t v = tile.begin; v < tile.end; ++v) {
      VertexId enc = s.parent_normal[v];
      if ((enc & kParentDelegateTag) != 0 && enc != kParentNone &&
          enc != kParentViaNn) {
        enc = graph_.delegates().vertex_of(
            static_cast<LocalId>(enc & ~kParentDelegateTag));
      }
      result.parents[spec.global_vertex(me.rank, me.gpu, v)] = enc;
    }
  });
  // Delegates: the replicated state of GPU 0 overlays the normal gather.
  const GpuState& s0 = run.state(0).gpu;
  for (LocalId t = 0; t < graph_.num_delegates(); ++t) {
    if (s0.level_delegate[t] == kUnvisited) continue;
    const VertexId global = graph_.delegates().vertex_of(t);
    result.distances[global] = s0.level_delegate[t];
    if (options_.compute_parents) {
      result.parents[global] = s0.parent_delegate_dd[t];
    }
  }

  result.metrics =
      assemble_metrics(graph_, options_.run.overlap, options_.reduce_mode,
                       std::move(run.histories), run.measured_ms,
                       std::move(run.fault));
  return result;
}

}  // namespace dsbfs::core
