#include "core/batch_bfs.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/bfs.hpp"
#include "core/frontier.hpp"
#include "core/packing.hpp"
#include "core/previsit.hpp"
#include "core/visit.hpp"
#include "engine/iterative_engine.hpp"
#include "sim/stream.hpp"
#include "util/parallel.hpp"

namespace dsbfs::core {

namespace {

// The result gather copies transposed byte words out in memory order.
static_assert(std::endian::native == std::endian::little);

/// Transposes the 8x8 byte matrix in `a`: byte c of a[r] moves to byte r of
/// a[c].  Three rounds of block swaps: 4-byte, 2-byte, then 1-byte blocks.
void transpose_bytes8(std::array<std::uint64_t, 8>& a) noexcept {
  for (std::size_t r = 0; r < 4; ++r) {
    const std::uint64_t x = a[r], y = a[r + 4];
    a[r] = (x & 0x00000000FFFFFFFFULL) | (y << 32);
    a[r + 4] = (x >> 32) | (y & 0xFFFFFFFF00000000ULL);
  }
  for (const std::size_t r : {0, 1, 4, 5}) {
    const std::uint64_t x = a[r], y = a[r + 2];
    a[r] = (x & 0x0000FFFF0000FFFFULL) | ((y & 0x0000FFFF0000FFFFULL) << 16);
    a[r + 2] =
        ((x >> 16) & 0x0000FFFF0000FFFFULL) | (y & 0xFFFF0000FFFF0000ULL);
  }
  for (const std::size_t r : {0, 2, 4, 6}) {
    const std::uint64_t x = a[r], y = a[r + 1];
    a[r] = (x & 0x00FF00FF00FF00FFULL) | ((y & 0x00FF00FF00FF00FFULL) << 8);
    a[r + 1] =
        ((x >> 8) & 0x00FF00FF00FF00FFULL) | (y & 0xFF00FF00FF00FF00ULL);
  }
}

/// The paper's BFS pipeline (Fig. 3), lane-generalized: identical engine
/// phase structure to BfsAlgorithm -- previsit forms the queues, visit
/// enqueues the four kernels on the two streams, the exchange rides the
/// normal stream through the control allreduce, the post-control mask
/// reduction overlaps it -- with lane words in place of single bits
/// everywhere a visited test or a wire record appears.
class BatchBfsAlgorithm {
 public:
  static constexpr const char* kStateLabel = "batch_bfs.state";

  struct State {
    State(const graph::LocalGraph& lg, int total_gpus, int lane_bits,
          bool record_parents)
        : gpu(lg, total_gpus, lane_bits, record_parents) {}

    LaneState gpu;
    sim::Event bins_ready;
    std::uint64_t bins_total = 0;
  };

  BatchBfsAlgorithm(const graph::DistributedGraph& graph,
                    const BatchBfsOptions& options,
                    std::span<const VertexId> sources, int lane_bits)
      : graph_(graph),
        options_(options),
        sources_(sources),
        lane_bits_(lane_bits) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    auto state =
        std::make_unique<State>(graph_.local(ctx.gpu), ctx.total_gpus,
                                lane_bits_, options_.compute_parents);
    LaneState& s = state->gpu;
    const graph::LocalGraph& lg = s.graph();
    s.direction_optimized = options_.direction == TraversalDirection::kHybrid;
    s.adaptive_direction = options_.adaptive_direction;
    s.dd_seed = options_.dd_factors;
    s.dn_seed = options_.dn_factors;
    s.nd_seed = options_.nd_factors;
    s.dir_dd = DirectionState(options_.dd_factors);
    s.dir_dn = DirectionState(options_.dn_factors);
    s.dir_nd = DirectionState(options_.nd_factors);
    s.batch_mask = sources_.size() >= 64 ? ~0ULL
                                         : (1ULL << sources_.size()) - 1;

    // Seed lane l at sources[l].  A delegate source activates on every GPU
    // (its adjacency is scattered); a normal source on its owner only.
    for (std::size_t lane = 0; lane < sources_.size(); ++lane) {
      const VertexId source = sources_[lane];
      const std::uint64_t bit = 1ULL << lane;
      const LocalId src_delegate = graph_.delegates().delegate_id(source);
      if (src_delegate != kInvalidLocal) {
        s.delegate_new.or_lanes(src_delegate, bit);
        if (s.delegate_visited.or_lanes(src_delegate, bit) == 0) {
          // First touch in any lane: leaves the all-lane unvisited pools
          // (duplicate sources only decrement once).
          if (lg.dd_source_mask().test(src_delegate)) --s.unvisited_dd_sources;
          if (lg.dn_source_mask().test(src_delegate)) --s.unvisited_dn_sources;
        }
        s.depth_delegate[s.slot(src_delegate, static_cast<int>(lane))] = 0;
        if (s.record_parents) {
          s.parent_delegate_dd[s.slot(src_delegate, static_cast<int>(lane))] =
              source;
        }
      } else if (spec.owner_global_gpu(source) == ctx.gpu) {
        // Depth 0 is stamped by the first normal previsit.
        const LocalId local = static_cast<LocalId>(spec.local_index(source));
        if (s.record_parents) {
          s.parent_normal[s.slot(local, static_cast<int>(lane))] = source;
        }
        if (s.next_normal.or_lanes(local, bit) == 0) {
          s.next_local.push_back(local);
        }
      }
    }
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext& ctx,
                            const State& s) const {
    // The device's state: 4-byte depth slots per (item, lane) plus the
    // three lane masks on each side.  The host's bit-sliced depth planes
    // do not enter checkpoint bytes or modeled time.
    const std::uint64_t w = static_cast<std::uint64_t>(lane_bits_);
    return graph_.local(ctx.gpu).num_local_normals() * w * sizeof(Depth) +
           static_cast<std::uint64_t>(graph_.num_delegates()) * w *
               sizeof(Depth) +
           3 * s.gpu.delegate_visited.byte_size() +
           3 * s.gpu.seen_normal.byte_size();
  }

  void previsit(engine::GpuContext&, State& s, int) {
    s.gpu.begin_iteration();
    delegate_previsit_lanes(s.gpu);
    normal_previsit_lanes(s.gpu);
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    LaneState& gs = s.gpu;

    // Delegate stream: dd then dn lane visits.
    ctx.delegate_stream.enqueue([&gs] { visit_dd_lanes(gs); });
    ctx.delegate_stream.enqueue([&gs] { visit_dn_lanes(gs); });

    // Normal stream: nd, nn, then bin accounting (the engine enqueues the
    // exchange hook behind these).
    const sim::ClusterSpec& spec = ctx.comm.spec();
    ctx.normal_stream.enqueue([&gs] { visit_nd_lanes(gs); });
    ctx.normal_stream.enqueue([&gs, &spec] { visit_nn_lanes(gs, spec); });
    s.bins_ready = ctx.normal_stream.record([&s] {
      s.bins_total = 0;
      for (const auto& bin : s.gpu.bins) s.bins_total += bin.size();
    });
  }

  void reduce(engine::GpuContext&, State&, int) {}  // post-control only

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    // Runs on the normal stream behind the visits; overlaps the
    // post-control mask reduction.  The lane word is the update value: OR
    // coalescing merges candidates for one destination, and the wire width
    // is the lane width (0 extra bytes at W = 1, where the single lane is
    // implicit and the record matches the id exchange's 4-byte id).  The
    // consumed receive buffer becomes the next round's loopback bin.
    LaneState& gs = s.gpu;
    engine::adopt_received(
        gs.bins, ctx.gpu, gs.received,
        ctx.comm.exchange_value_updates(
            ctx.me, gs.bins, iteration,
            {.combine = options_.run.uniquify ? comm::UpdateCombine::kOr
                                              : comm::UpdateCombine::kNone,
             .codec = options_.codec,
             .value_bytes = lane_bits_ == 1 ? 0 : lane_bits_ / 8,
             .topology = options_.run.exchange_topology,
             .retry = options_.run.resilience.retry},
            gs.iter));
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
    // Delegate lane-mask reduction (overlaps the normal exchange).
    s.gpu.reduce_delegate_updates(ctx.comm.mask_reducer(), ctx.me, iteration,
                                  options_.reduce_mode,
                                  control >= kDelegateFlagUnit);
  }

  bool end_iteration(engine::GpuContext& ctx, State& s, int,
                     std::uint64_t control) {
    ctx.normal_stream.synchronize();  // exchange complete; received filled
    s.gpu.end_iteration();
    if (s.gpu.direction_optimized && s.gpu.adaptive_direction) {
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

  /// Per-lane BFS-tree completion, the lane generalization of Section
  /// VI-A3: traversal shipped (id, lane word) only, so (vertex, lane) pairs
  /// discovered through nn edges do not know their parent yet; one extra
  /// exchange of lane probes resolves them, and one min-reduction of the
  /// d*W delegate-parent words settles every replica identically.
  void finalize(engine::GpuContext& ctx, State& state, int iterations) {
    if (!options_.compute_parents) return;
    LaneState& s = state.gpu;
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

    // Pack (dest_local, lane, my_level_in_lane) + my_global for every nn
    // edge out of each visited (vertex, lane); the receiver accepts the
    // first sender exactly one level above it in that lane.  A vertex's
    // lane depths are decoded once, not once per edge.
    std::vector<std::vector<std::uint64_t>> tuples(static_cast<std::size_t>(p));
    std::array<Depth, 64> lane_depths{};
    for (std::uint64_t v = 0; v < n_local; ++v) {
      const std::uint64_t lanes = s.seen_normal.lanes(v);
      if (lanes == 0) continue;
      s.decode_depths(v, lane_depths.data());
      const VertexId v_global = spec.global_vertex(me.rank, me.gpu, v);
      for (const VertexId dst : lg.nn().row(v)) {
        const auto [owner, local] = router.split(dst);
        auto& bin = tuples[static_cast<std::size_t>(owner)];
        for (std::uint64_t b = lanes; b != 0; b &= b - 1) {
          const int lane = std::countr_zero(b);
          bin.push_back(pack_lane_parent_probe(local, lane,
                                               lane_depths[lane]));
          bin.push_back(v_global);
        }
      }
    }
    auto apply_tuples = [&](const std::vector<std::uint64_t>& words) {
      for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
        const LocalId local = lane_parent_probe_local(words[i]);
        const int lane = lane_parent_probe_lane(words[i]);
        const Depth lvl = lane_parent_probe_level(words[i]);
        const std::size_t sl = s.slot(local, lane);
        // Min over all senders one level up (see DistributedBfs::finalize):
        // arrival order is topology-dependent, the id minimum is not.  The
        // depth is decoded last, for the probes that pass the parent tests.
        const VertexId cur = s.parent_normal[sl];
        if ((cur == kParentViaNn || (cur & kParentDelegateTag) == 0) &&
            words[i + 1] < cur && s.lane_depth(local, lane) == lvl + 1) {
          s.parent_normal[sl] = words[i + 1];
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
    // global ids -> min-reduce over every (delegate, lane) slot, left in
    // parent_delegate_dd.
    const std::size_t d = graph_.num_delegates();
    const std::size_t w = static_cast<std::size_t>(lane_bits_);
    std::vector<std::uint64_t> parents(d * w);
    for (std::size_t i = 0; i < d * w; ++i) {
      VertexId enc =
          std::min(s.parent_delegate_dd[i], s.parent_delegate_nd[i]);
      if (enc != kParentNone && (enc & kParentDelegateTag) != 0) {
        enc = graph_.delegates().vertex_of(
            static_cast<LocalId>(enc & ~kParentDelegateTag));
      }
      parents[i] = enc;  // kParentNone == UINT64_MAX: identity for min
    }
    if (p > 1) {
      ctx.comm.allreduce_min_words(
          g, parents, engine::TagBlocks::user(parent_block, 4));
    }
    s.parent_delegate_dd = std::move(parents);
  }

 private:
  const graph::DistributedGraph& graph_;
  const BatchBfsOptions& options_;
  std::span<const VertexId> sources_;
  int lane_bits_;
};

}  // namespace

DistributedBatchBfs::DistributedBatchBfs(const graph::DistributedGraph& graph,
                                         sim::Cluster& cluster,
                                         BatchBfsOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
}

VertexId DistributedBatchBfs::sample_source(std::uint64_t k) const {
  return sample_traversal_source(graph_, k);
}

BatchBfsResult DistributedBatchBfs::run(std::span<const VertexId> sources) {
  if (sources.empty() || sources.size() > 64) {
    throw std::invalid_argument("batch bfs takes 1..64 sources");
  }
  for (const VertexId s : sources) {
    if (s >= graph_.num_vertices()) {
      throw std::out_of_range("batch bfs source out of range");
    }
  }
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();
  const int lane_bits = util::lane_width_for(sources.size());
  const std::size_t num_lanes = sources.size();

  BatchBfsAlgorithm algo(graph_, options_, sources, lane_bits);
  engine::IterativeEngine<BatchBfsAlgorithm> engine(graph_, cluster_,
                                                    options_.run);
  auto run = engine.run(algo);

  // ---- Gather per-lane distances (and parents) on the host. -------------
  // The lane columns are allocated in parallel, one lane per task.  Then one
  // parallel pass over tiles of kGatherTile global vertices fills them.  A
  // tile loads each vertex's plane words once and spreads them into byte
  // layers, one 8-lane word per group of lanes (depth_byte_layer).  Per lane
  // group it turns the layers lane-major with 8x8 byte transposes, widens
  // each lane's bytes into its column's tile range, and overlays the range's
  // visited delegate lanes from GPU 0's replicated state.  Tiles write
  // disjoint ranges, each a few contiguous runs per column.
  BatchBfsResult result;
  result.lane_bits = lane_bits;
  const VertexId n = graph_.num_vertices();
  const bool parents = options_.compute_parents;
  result.distances.resize(num_lanes);
  if (parents) result.parents.resize(num_lanes);
  util::parallel_tasks(num_lanes, [&](std::size_t lane) {
    result.distances[lane].resize(n);
    if (parents) result.parents[lane].resize(n);
  });
  std::vector<const LaneState*> states;
  std::size_t planes = 0;
  for (int g = 0; g < p; ++g) {
    states.push_back(&run.state(g).gpu);
    planes = std::max(planes, states.back()->depth_planes.size());
  }
  const std::size_t layers = depth_byte_layers(planes);
  const std::size_t groups = (num_lanes + 7) / 8;
  constexpr std::size_t kGatherTile = 512;
  const sim::VertexRouter router(spec);
  const std::vector<VertexId>& delegates = graph_.delegates().vertices();
  const LaneState& s0 = *states[0];
  const std::size_t tiles = (n + kGatherTile - 1) / kGatherTile;
  util::parallel_tasks(tiles, [&](std::size_t tile) {
    const VertexId begin = tile * kGatherTile;
    const std::size_t width = std::min<VertexId>(n - begin, kGatherTile);
    std::vector<std::uint64_t> views(layers * groups * kGatherTile);
    const auto view = [&](std::size_t layer, std::size_t g) {
      return views.begin() + (layer * groups + g) * kGatherTile;
    };
    std::vector<VertexId> par(parents ? num_lanes * kGatherTile : 0);
    std::array<std::uint64_t, 32> words{};
    for (std::size_t x = 0; x < width; ++x) {
      const auto [owner, v] = router.split(begin + x);
      const LaneState& s = *states[static_cast<std::size_t>(owner)];
      const std::uint64_t unseen = ~s.seen_normal.lanes(v);
      const std::size_t own = s.depth_words(v, words.data());
      for (std::size_t c = 0; c < layers; ++c) {
        for (std::size_t g = 0; g < groups; ++g) {
          view(c, g)[x] = depth_byte_layer(words.data(), own, unseen, c,
                                           static_cast<int>(g * 8));
        }
      }
      if (!parents) continue;
      for (std::size_t lane = 0; lane < num_lanes; ++lane) {
        VertexId enc = s.parent_normal[s.slot(v, static_cast<int>(lane))];
        if ((enc & kParentDelegateTag) != 0 && enc != kParentNone &&
            enc != kParentViaNn) {
          enc = graph_.delegates().vertex_of(
              static_cast<LocalId>(enc & ~kParentDelegateTag));
        }
        par[lane * kGatherTile + x] = enc;
      }
    }
    for (std::size_t g = 0; g < groups; ++g) {
      // Fixed-size local rows, so the widening loops vectorize.
      std::array<std::array<Depth, kGatherTile>, 8> lane_rows;
      for (std::size_t layer = layers; layer-- > 0;) {
        std::array<std::array<std::uint8_t, kGatherTile>, 8> bytes;
        for (std::size_t x = 0; x < kGatherTile; x += 8) {
          std::array<std::uint64_t, 8> block;
          std::copy_n(view(layer, g) + x, 8, block.begin());
          transpose_bytes8(block);
          for (std::size_t k = 0; k < 8; ++k) {
            std::memcpy(&bytes[k][x], &block[k], 8);
          }
        }
        for (std::size_t k = 0; k < 8; ++k) {
          if (layer + 1 == layers) {  // the top byte carries the sign
            for (std::size_t x = 0; x < kGatherTile; ++x) {
              lane_rows[k][x] = static_cast<std::int8_t>(bytes[k][x]);
            }
            continue;
          }
          for (std::size_t x = 0; x < kGatherTile; ++x) {
            lane_rows[k][x] =
                lane_rows[k][x] * 256 + static_cast<Depth>(bytes[k][x]);
          }
        }
      }
      for (std::size_t k = 0; k < 8 && g * 8 + k < num_lanes; ++k) {
        std::copy_n(lane_rows[k].begin(), width,
                    result.distances[g * 8 + k].begin() + begin);
      }
    }
    for (auto it = std::lower_bound(delegates.begin(), delegates.end(), begin);
         it != delegates.end() && *it < begin + width; ++it) {
      const auto t = static_cast<LocalId>(it - delegates.begin());
      for (std::uint64_t b = s0.delegate_visited.lanes(t); b != 0; b &= b - 1) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(b));
        if (lane >= num_lanes) continue;
        const std::size_t sl = s0.slot(t, static_cast<int>(lane));
        result.distances[lane][*it] = s0.depth_delegate[sl];
        if (parents) {
          par[lane * kGatherTile + (*it - begin)] = s0.parent_delegate_dd[sl];
        }
      }
    }
    for (std::size_t lane = 0; parents && lane < num_lanes; ++lane) {
      std::copy_n(par.begin() + lane * kGatherTile, width,
                  result.parents[lane].begin() + begin);
    }
  });

  // ---- Model: one shared counter history, lane-scaled mask payload. -----
  result.metrics = assemble_metrics(graph_, options_.run.overlap,
                                    options_.reduce_mode,
                                    std::move(run.histories), run.measured_ms,
                                    std::move(run.fault), lane_bits);
  return result;
}

}  // namespace dsbfs::core
