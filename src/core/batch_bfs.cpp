#include "core/batch_bfs.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/bfs.hpp"
#include "core/frontier.hpp"
#include "core/lane_pipeline.hpp"
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

/// The BFS over W lanes: the shared pipeline hooks plus seeding, the
/// termination test and the BFS-tree completion.  W = 1 is the
/// single-source BFS.
class LaneBfsAlgorithm : public LanePipeline<LaneState> {
 public:
  static constexpr const char* kStateLabel = "bfs.state";

  LaneBfsAlgorithm(const graph::DistributedGraph& graph,
                   const BfsOptions& options,
                   std::span<const VertexId> sources)
      : LanePipeline(options.local_all2all),
        graph_(graph),
        options_(options),
        sources_(sources) {
    if (options.compute_parents) {
      check_slot_ids_fit(graph.max_local_normals(),
                         static_cast<std::uint64_t>(
                             util::lane_width_for(sources.size())));
    }
  }

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    auto state = std::make_unique<State>(
        graph_.local(ctx.gpu), ctx.total_gpus,
        util::lane_width_for(sources_.size()), options_.compute_parents);
    LaneState& s = *state;
    s.direction_optimized = options_.direction_optimized;
    s.adaptive_direction = options_.adaptive_direction;
    s.dir_dd = DirectionState(kBfsDirectionSeeds.dd);
    s.dir_dn = DirectionState(kBfsDirectionSeeds.dn);
    s.dir_nd = DirectionState(kBfsDirectionSeeds.nd);
    s.batch_mask = sources_.size() >= 64 ? ~0ULL
                                         : (1ULL << sources_.size()) - 1;
    for (std::size_t lane = 0; lane < sources_.size(); ++lane) {
      s.seed(static_cast<int>(lane), sources_[lane],
             graph_.delegates().delegate_id(sources_[lane]), 0);
    }
    return state;
  }

  bool end_iteration(engine::GpuContext& ctx, State& s, int,
                     std::uint64_t control) {
    close_iteration(ctx, s);
    return control == 0;  // no delegate update and no new normal work
  }

  /// Per-lane BFS-tree completion, the lane generalization of Section
  /// VI-A3: traversal shipped (id, lane word) only, so (vertex, lane) pairs
  /// discovered through nn edges do not know their parent yet.  One update
  /// round through the run's exchange resolves them, and one min-reduction
  /// of the d*W delegate-parent words settles every replica identically.
  void finalize(engine::GpuContext& ctx, State& s, int iterations) {
    if (!options_.compute_parents) return;
    const sim::ClusterSpec& spec = graph_.spec();
    const int p = ctx.total_gpus;
    const int g = ctx.gpu;
    const sim::GpuCoord me = ctx.me;
    const graph::LocalGraph& lg = graph_.local(g);
    const graph::GhostTable& ghosts = lg.ghosts();
    const std::uint64_t n_local = lg.num_local_normals();
    const int parent_block = engine::TagBlocks::after_loop(iterations);

    // Every nn edge out of a visited (vertex, lane) ships one update to the
    // target's slot carrying (sender level, sender id), packed high to low,
    // so a kMin merge keeps the lowest level and the smallest id in it.
    // The nn subgraph is symmetric and adjacent levels differ by at most
    // one, so every record for a slot at depth D carries a level >= D - 1:
    // the minimum is the smallest sender at D - 1, in any arrival order
    // and under any topology.  Levels stay below `iterations`.
    const auto id_bits =
        static_cast<int>(std::bit_width(graph_.num_vertices() - 1));
    const auto level_bits =
        static_cast<int>(std::bit_width(static_cast<unsigned>(iterations)));
    if (level_bits + id_bits > 64) {
      throw std::overflow_error(
          "bfs parent round: level and id exceed 64 bits");
    }
    const std::uint64_t id_mask = (std::uint64_t{1} << id_bits) - 1;
    std::vector<std::vector<comm::VertexUpdate>> bins(
        static_cast<std::size_t>(p));
    std::array<Depth, 64> lane_depths{};
    for (std::uint64_t v = 0; v < n_local; ++v) {
      const std::uint64_t lanes = s.seen_normal.lanes(v);
      if (lanes == 0) continue;
      s.decode_depths(v, lane_depths.data());
      const VertexId v_global = spec.global_vertex(me.rank, me.gpu, v);
      for (const LocalId ghost : lg.nn().row(v)) {
        const LocalId local = ghosts.local(ghost);
        auto& bin = bins[static_cast<std::size_t>(ghosts.owner(ghost))];
        for (std::uint64_t b = lanes; b != 0; b &= b - 1) {
          const int lane = std::countr_zero(b);
          const auto level = static_cast<std::uint64_t>(lane_depths[lane]);
          bin.push_back({static_cast<LocalId>(s.slot(local, lane)),
                         level << id_bits | v_global});
        }
      }
    }
    // The round rides the run's merge, codec, routing and retry policy.
    // Its counters go to the post-loop row: its faults and retries count in
    // the run's fault report, its traffic stays off the model, like the
    // rest of tree building.
    const std::vector<comm::VertexUpdate> received = ctx.comm.exchange(
        me, bins, parent_block,
        {.combine = comm::UpdateCombine::kMin,
         .local_all2all = options_.local_all2all},
        ctx.post_loop);
    const auto w = static_cast<std::size_t>(s.lane_bits());
    for (const comm::VertexUpdate& u : received) {
      const std::size_t sl = u.vertex;
      const VertexId id = u.value & id_mask;
      const auto level = static_cast<Depth>(u.value >> id_bits);
      // Eligible slots are unresolved nn discoveries (kParentViaNn) or ids
      // an earlier record of this round resolved; a delegate-claimed parent
      // (tag bit set) keeps its deterministic claim.  A seeded source is
      // safe: its depth 0 never matches level + 1.  The depth is decoded
      // last, for the records that pass the parent tests.
      const VertexId cur = s.parent_normal[sl];
      if ((cur == kParentViaNn || (cur & kParentDelegateTag) == 0) &&
          id < cur &&
          s.lane_depth(sl / w, static_cast<int>(sl % w)) == level + 1) {
        s.parent_normal[sl] = id;
      }
    }

    // Delegate parents: the min of the two streams' encoded candidates ->
    // global ids -> min-reduce over every (delegate, lane) slot, left in
    // parent_delegate_dd.
    const std::size_t d = graph_.num_delegates();
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
  const BfsOptions& options_;
  std::span<const VertexId> sources_;
};

/// A normal vertex's recorded parent as a global id: delegate-tagged
/// encodings resolve to the delegate's vertex; kParentNone
/// (== kInvalidVertex) and resolved ids pass through.
VertexId decode_parent(const graph::DistributedGraph& graph, VertexId enc) {
  if ((enc & kParentDelegateTag) != 0 && enc != kParentNone &&
      enc != kParentViaNn) {
    return graph.delegates().vertex_of(
        static_cast<LocalId>(enc & ~kParentDelegateTag));
  }
  return enc;
}

/// W = 1 gather: in parallel over tiles of each GPU's local vertices, a
/// plane decode of 64 vertices per word (bit k of plane j's word is bit j
/// of vertex k's distance; decode_plane_words), scattered to the vertices'
/// global ids, with the visited delegates among them overlaid from GPU 0's
/// replicated state.
BatchBfsResult gather_one_lane(const graph::DistributedGraph& graph,
                               std::span<const LaneState* const> states,
                               bool parents) {
  const sim::ClusterSpec& spec = graph.spec();
  const VertexId n = graph.num_vertices();
  BatchBfsResult result;
  std::vector<Depth>& dist = result.distances.emplace_back(n);
  std::vector<VertexId>* par =
      parents ? &result.parents.emplace_back(n) : nullptr;
  constexpr std::uint64_t kTile = 4096;  // whole plane words
  struct Tile {
    int gpu;
    std::uint64_t begin, end;  // local vertex range
  };
  std::vector<Tile> tiles;
  for (int g = 0; g < spec.total_gpus(); ++g) {
    const std::uint64_t n_local = graph.local(g).num_local_normals();
    for (std::uint64_t v = 0; v < n_local; v += kTile) {
      tiles.push_back({g, v, std::min(n_local, v + kTile)});
    }
  }
  const std::vector<VertexId>& delegates = graph.delegates().vertices();
  const LaneState& s0 = *states[0];
  util::parallel_tasks(tiles.size(), [&](std::size_t i) {
    const Tile& tile = tiles[i];
    const LaneState& s = *states[static_cast<std::size_t>(tile.gpu)];
    const sim::GpuCoord me = spec.coord_of(tile.gpu);
    const std::size_t planes = s.depth_planes.size();
    // Consecutive local vertices are p global ids apart.
    const auto p = static_cast<std::uint64_t>(spec.total_gpus());
    std::array<std::uint64_t, 32> words;
    std::array<Depth, 64> depths;
    for (std::uint64_t base = tile.begin; base < tile.end; base += 64) {
      const std::size_t w = base / 64;
      for (std::size_t j = 0; j < planes; ++j) {
        words[j] = s.depth_planes[j].word(w);
      }
      decode_plane_words(words.data(), planes, ~s.seen_normal.word(w), 64,
                         depths.data());
      Depth* out = dist.data() + spec.global_vertex(me.rank, me.gpu, base);
      const std::uint64_t count = std::min<std::uint64_t>(64, tile.end - base);
      for (std::uint64_t k = 0; k < count; ++k) out[k * p] = depths[k];
    }
    if (par != nullptr) {
      for (std::uint64_t v = tile.begin; v < tile.end; ++v) {
        (*par)[spec.global_vertex(me.rank, me.gpu, v)] =
            decode_parent(graph, s.parent_normal[v]);
      }
    }
    // The delegates among the tile's global ids take GPU 0's replicated
    // state.
    const VertexId first = spec.global_vertex(me.rank, me.gpu, tile.begin);
    const VertexId last = spec.global_vertex(me.rank, me.gpu, tile.end);
    for (auto it = std::lower_bound(delegates.begin(), delegates.end(), first);
         it != delegates.end() && *it < last; ++it) {
      const auto t = static_cast<std::size_t>(it - delegates.begin());
      if ((*it - first) % p != 0 || !s0.delegate_visited.test(t)) continue;
      dist[*it] = s0.depth_delegate[t];
      if (par != nullptr) (*par)[*it] = s0.parent_delegate_dd[t];
    }
  });
  return result;
}

/// W > 1 gather.  The lane columns are allocated in parallel, one lane per
/// task.  Then one parallel pass over tiles of kGatherTile global vertices
/// fills them.  A tile loads each vertex's plane words once and spreads
/// them into byte layers, one 8-lane word per group of lanes
/// (depth_byte_layer).  Per lane group it turns the layers lane-major with
/// 8x8 byte transposes, widens each lane's bytes into its column's tile
/// range, and overlays the range's visited delegate lanes from GPU 0's
/// replicated state.  Tiles write disjoint ranges, each a few contiguous
/// runs per column.
BatchBfsResult gather_lanes(const graph::DistributedGraph& graph,
                            std::span<const LaneState* const> states,
                            std::size_t num_lanes, bool parents) {
  BatchBfsResult result;
  const VertexId n = graph.num_vertices();
  result.distances.resize(num_lanes);
  if (parents) result.parents.resize(num_lanes);
  util::parallel_tasks(num_lanes, [&](std::size_t lane) {
    result.distances[lane].resize(n);
    if (parents) result.parents[lane].resize(n);
  });
  std::size_t planes = 0;
  for (const LaneState* s : states) {
    planes = std::max(planes, s->depth_planes.size());
  }
  const std::size_t layers = depth_byte_layers(planes);
  const std::size_t groups = (num_lanes + 7) / 8;
  constexpr std::size_t kGatherTile = 512;
  const sim::VertexRouter router(graph.spec());
  const std::vector<VertexId>& delegates = graph.delegates().vertices();
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
        par[lane * kGatherTile + x] = decode_parent(
            graph, s.parent_normal[s.slot(v, static_cast<int>(lane))]);
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

  return result;
}

}  // namespace

BatchBfsResult run_lane_bfs(const graph::DistributedGraph& graph,
                            sim::Cluster& cluster,
                            const BfsOptions& options,
                            std::span<const VertexId> sources) {
  const int lane_bits = util::lane_width_for(sources.size());
  LaneBfsAlgorithm algo(graph, options, sources);
  engine::IterativeEngine<LaneBfsAlgorithm> engine(graph, cluster,
                                                   options.run);
  auto run = engine.run(algo);

  std::vector<const LaneState*> states;
  for (int g = 0; g < graph.spec().total_gpus(); ++g) {
    states.push_back(&run.state(g));
  }
  BatchBfsResult result =
      lane_bits == 1
          ? gather_one_lane(graph, states, options.compute_parents)
          : gather_lanes(graph, states, sources.size(),
                         options.compute_parents);

  // ---- Model: one shared counter history, lane-scaled mask payload. -----
  result.metrics = assemble_metrics(graph, options.run.overlap,
                                    options.reduce_mode,
                                    std::move(run.histories), run.measured_ms,
                                    std::move(run.fault), lane_bits);
  return result;
}

DistributedBatchBfs::DistributedBatchBfs(const graph::DistributedGraph& graph,
                                         sim::Cluster& cluster,
                                         BfsOptions options)
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
  return run_lane_bfs(graph_, cluster_, options_, sources);
}

}  // namespace dsbfs::core
