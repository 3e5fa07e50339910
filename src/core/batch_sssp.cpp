#include "core/batch_sssp.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/bucket.hpp"
#include "core/metrics.hpp"
#include "engine/iterative_engine.hpp"
#include "util/hash.hpp"
#include "util/lane_value_slab.hpp"

namespace dsbfs::core {

namespace {

/// Delta-stepping as engine phases (see batch_sssp.hpp).  Queue entries are
/// (vertex, lane) slots, distances are packed lane words, and the relax
/// kernels sweep each active vertex's edges once for all of its active
/// lanes.  Every mode transition is a pure function of globally
/// agreed values, so all GPUs move through identical (bucket, phase)
/// sequences in lockstep.
///
/// The class is instantiated once per packed width `kBits`, so the per-edge
/// lane arithmetic (storage word, shift, sentinel test) folds to constants.
/// Distances use the util::LaneValueSlab layout (W values per item in
/// word-aligned lane groups, all-ones = infinity) but live in plain word
/// vectors: each array is written by one thread per phase -- the visit on
/// the GPU thread, then `reduce` (delegate words) and `exchange` (normal
/// words) on disjoint arrays -- so no CAS is needed, a round's candidate
/// copy is a memcpy, and the delegate reduction folds the candidate words
/// in place.
template <int kBits>
class BatchSsspAlgorithm {
 public:
  static constexpr const char* kStateLabel = "batch_sssp.state";
  static constexpr int kLanesPerWord = 64 / kBits;
  /// One value's all-ones mask, also the width's infinity sentinel.
  static constexpr std::uint64_t kMask = ~0ULL >> (64 - kBits);

  /// Cluster-global round state machine.  kOpenBucket previsits run the
  /// next-bucket MIN; kLight previsits run the light-work SUM (zero means
  /// this round is the bucket's heavy round); kDone rounds do nothing and
  /// contribute zero, terminating the engine.
  enum class Mode { kOpenBucket, kLight, kDone };

  /// Packed lane words, groups_per_item() per item.
  using Words = std::vector<std::uint64_t>;

  /// A vertex with the mask of its lanes a round relaxes.
  struct ActiveVertex {
    LocalId v;
    std::uint64_t lanes;
  };
  /// Per vertex: the bucket epoch it last settled in and its position in
  /// that epoch's settled list.
  struct SettledMark {
    std::uint32_t epoch = 0;
    LocalId index = 0;
  };

  struct State {
    Words dist_normal;    // per local normal x lane
    Words dist_delegate;  // per delegate x lane, replicated
    Words delegate_cand;  // this round's candidates
    BucketState normal_buckets;    // keyed by slot_of(vertex, lane)
    BucketState delegate_buckets;  // replicated, identical on every GPU
    // This light round's input slots, sorted: bucket takes are sorted and
    // end_iteration classifies sorted improvement lists.
    std::vector<LocalId> fresh_normals;
    std::vector<LocalId> fresh_delegates;
    std::vector<LocalId> next_normals;  // slot improvements this round
    std::vector<LocalId> next_delegates;
    // The light round's fresh slots grouped by vertex (formed in the
    // previsit), so the relax kernels walk each vertex's edges once.
    std::vector<ActiveVertex> fresh_verts_normal;
    std::vector<ActiveVertex> fresh_verts_delegate;
    // Every (vertex, lane) relaxed while the open bucket is open, grouped by
    // vertex in first-settled order: the bucket's heavy round input.
    std::vector<ActiveVertex> settled_normals;
    std::vector<ActiveVertex> settled_delegates;
    std::vector<SettledMark> settled_mark_normal;  // per local normal
    std::vector<SettledMark> settled_mark_delegate;
    // Bucket-open counter (= settled stamp); below the int iteration count.
    std::uint32_t epoch = 0;
    std::uint64_t current_bucket = kNoBucket;
    Mode mode = Mode::kOpenBucket;
    bool heavy_round = false;      // this round relaxes heavy edges
    bool overflow = false;         // some candidate hit the width sentinel
    std::uint64_t value_bias = 0;  // replicated wire bias for this round
    // Light/heavy edge-index split of the four subgraphs for this delta.
    EdgePartition part_nn, part_nd, part_dn, part_dd;
    std::vector<std::vector<comm::VertexUpdate>> bins;
    sim::GpuIterationCounters iter;
  };

  BatchSsspAlgorithm(const graph::DistributedGraph& graph,
                     const BatchSsspOptions& options,
                     const std::vector<VertexId>& sources)
      : graph_(graph),
        options_(options),
        sources_(sources),
        lane_bits_(std::bit_width(sources.size() - 1)),
        groups_((sources.size() + kLanesPerWord - 1) / kLanesPerWord) {
    check_slot_ids_fit(std::max<std::uint64_t>(graph.max_local_normals(),
                                               graph.num_delegates()),
                       std::uint64_t{1} << lane_bits_);
  }

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const graph::DelegateInfo& delegates = graph_.delegates();
    const LocalId d = graph_.num_delegates();
    const std::uint64_t n_local = lg.num_local_normals();
    const int w = static_cast<int>(sources_.size());

    auto state = std::make_unique<State>();
    State& s = *state;
    s.dist_normal.assign(n_local * groups_, ~0ULL);
    s.dist_delegate.assign(d * groups_, ~0ULL);
    s.delegate_cand.assign(d * groups_, ~0ULL);
    s.settled_mark_normal.assign(n_local, {});
    s.settled_mark_delegate.assign(d, {});
    s.normal_buckets = BucketState(options_.delta);
    s.delegate_buckets = BucketState(options_.delta);
    s.bins.resize(static_cast<std::size_t>(ctx.total_gpus));

    // Light/heavy partitions per subgraph, shared by all lanes; the hashed
    // fallback recomputes the same endpoint-pair weight the relax kernels
    // will read.
    const auto global_of = [&](LocalId v) {
      return spec.global_vertex(ctx.me.rank, ctx.me.gpu, v);
    };
    const std::uint64_t delta = options_.delta;
    s.part_nn = EdgePartition::build(
        lg.nn(), delta, [&](std::size_t r, std::uint64_t e) {
          return weight(lg.nn_weights(), e, global_of(static_cast<LocalId>(r)),
                        lg.ghosts().global(lg.nn().col(e)));
        });
    s.part_nd = EdgePartition::build(
        lg.nd(), delta, [&](std::size_t r, std::uint64_t e) {
          return weight(lg.nd_weights(), e,
                        global_of(static_cast<LocalId>(r)),
                        delegates.vertex_of(lg.nd().col(e)));
        });
    s.part_dn = EdgePartition::build(
        lg.dn(), delta, [&](std::size_t r, std::uint64_t e) {
          return weight(lg.dn_weights(), e,
                        delegates.vertex_of(static_cast<LocalId>(r)),
                        global_of(lg.dn().col(e)));
        });
    s.part_dd = EdgePartition::build(
        lg.dd(), delta, [&](std::size_t r, std::uint64_t e) {
          return weight(lg.dd_weights(), e,
                        delegates.vertex_of(static_cast<LocalId>(r)),
                        delegates.vertex_of(lg.dd().col(e)));
        });

    // Seed every lane's source into bucket 0 (slot-keyed): delegates on
    // every GPU (replicated buckets), normals on their owner only.
    for (int lane = 0; lane < w; ++lane) {
      const VertexId src = sources_[static_cast<std::size_t>(lane)];
      const LocalId src_delegate = delegates.delegate_id(src);
      if (src_delegate != kInvalidLocal) {
        lower_lane(s.dist_delegate, src_delegate, lane, 0);
        s.delegate_buckets.insert(slot_of(src_delegate, lane), 0);
      } else if (spec.owner_global_gpu(src) == ctx.gpu) {
        const LocalId local = static_cast<LocalId>(spec.local_index(src));
        lower_lane(s.dist_normal, local, lane, 0);
        s.normal_buckets.insert(slot_of(local, lane), 0);
      }
    }
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext&, const State& s) const {
    // Distance, candidate and settled-mark arrays (8-byte elements), plus
    // the edge partitions.
    return (s.dist_normal.size() + s.dist_delegate.size() +
            s.delegate_cand.size() + s.settled_mark_normal.size() +
            s.settled_mark_delegate.size()) *
               8 +
           s.part_nn.bytes() + s.part_nd.bytes() + s.part_dn.bytes() +
           s.part_dd.bytes();
  }

  void previsit(engine::GpuContext& ctx, State& s, int iteration) {
    s.iter = sim::GpuIterationCounters{};
    s.delegate_cand = s.dist_delegate;
    s.next_normals.clear();
    s.next_delegates.clear();
    s.heavy_round = false;

    const auto dist_n = [&](LocalId sl) {
      return slot_dist(s.dist_normal, sl);
    };
    const auto dist_d = [&](LocalId sl) {
      return slot_dist(s.dist_delegate, sl);
    };

    if (s.mode == Mode::kOpenBucket) {
      // Union bucket agreement: the min over every slot of every lane on
      // every GPU (kNoBucket when a GPU is drained).  One collective serves
      // all W lanes.
      std::uint64_t word = std::min(s.normal_buckets.min_bucket_with(dist_n),
                                    s.delegate_buckets.min_bucket_with(dist_d));
      ctx.comm.allreduce_min_words(
          ctx.gpu, std::span<std::uint64_t>(&word, 1),
          engine::TagBlocks::user(iteration));
      s.iter.bucket_coordination = true;
      if (word == kNoBucket) {
        s.mode = Mode::kDone;
      } else {
        s.current_bucket = word;
        ++s.epoch;
        s.fresh_normals = s.normal_buckets.take_with(word, dist_n);
        s.fresh_delegates = s.delegate_buckets.take_with(word, dist_d);
        s.settled_normals.clear();
        s.settled_delegates.clear();
        s.mode = Mode::kLight;
      }
    } else if (s.mode == Mode::kLight) {
      // Light loop continuation test: any slot anywhere re-entered the open
      // bucket?  Zero promotes this round to the bucket's heavy round.
      const std::uint64_t mine =
          s.fresh_normals.size() + s.fresh_delegates.size();
      const std::uint64_t total = ctx.comm.allreduce_sum(
          ctx.gpu, mine, engine::TagBlocks::user(iteration));
      s.iter.bucket_coordination = true;
      s.heavy_round = (total == 0);
    }

    const bool open = s.mode == Mode::kLight;
    s.iter.bucket_plus_one = open ? s.current_bucket + 1 : 0;
    s.iter.heavy_phase = s.heavy_round;
    s.value_bias = (open && comm::uses_value_bias(options_.run.codec))
                       ? util::LaneValueSlab::replicate(
                             s.normal_buckets.bucket_base(s.current_bucket),
                             kBits)
                       : 0;

    // Group the round's active slots by vertex: the four sweeps of the
    // visit walk each active vertex's edge list once, serving every active
    // lane from one weight lookup -- the whole point of the batch.  The
    // settled sets are grouped as they grow.
    s.fresh_verts_normal.clear();
    s.fresh_verts_delegate.clear();
    if (open && !s.heavy_round) {
      group_by_vertex(s.fresh_normals, s.fresh_verts_normal);
      group_by_vertex(s.fresh_delegates, s.fresh_verts_delegate);
    }
    s.iter.dprev_vertices = open ? active_delegates(s).size() : 0;
    s.iter.nprev_vertices = open ? active_normals(s).size() : 0;
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    if (s.mode != Mode::kLight) return;  // kDone: nothing left to relax
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const graph::DelegateInfo& delegates = graph_.delegates();
    const graph::GhostTable& ghosts = lg.ghosts();
    const auto global_of = [&](LocalId v) {
      return spec.global_vertex(ctx.me.rank, ctx.me.gpu, v);
    };
    const auto delegate_of = [&](LocalId t) { return delegates.vertex_of(t); };

    // Light rounds settle their input slots: each gets exactly one heavy
    // relaxation at its (then final) distance when the bucket closes.
    if (!s.heavy_round) {
      settle(s.fresh_verts_normal, s.epoch, s.settled_mark_normal,
             s.settled_normals);
      settle(s.fresh_verts_delegate, s.epoch, s.settled_mark_delegate,
             s.settled_delegates);
    }
    const std::vector<ActiveVertex>& normals = active_normals(s);
    const std::vector<ActiveVertex>& delegate_verts = active_delegates(s);

    // nn: lane-word candidates travel to the owner.
    sweep(s, normals, s.dist_normal, s.part_nn,
          s.iter.nn, global_of,
          [&](VertexId u, EdgeId e, const auto& active) {
            const LocalId ghost = lg.nn().col(e);
            relax_to_bin(
                s, active,
                weight(lg.nn_weights(), e, u, ghosts.global(ghost)),
                ghosts.local(ghost),
                s.bins[static_cast<std::size_t>(ghosts.owner(ghost))]);
          });
    // nd: normals push into the replicated candidates.
    sweep(s, normals, s.dist_normal, s.part_nd,
          s.iter.nd, global_of,
          [&](VertexId u, EdgeId e, const auto& active) {
            const LocalId c = lg.nd().col(e);
            relax_into(s, s.delegate_cand, c, active,
                       weight(lg.nd_weights(), e, u, delegate_of(c)),
                       nullptr);
          });
    // dd: delegates push into the candidates.
    sweep(s, delegate_verts, s.dist_delegate,
          s.part_dd, s.iter.dd, delegate_of,
          [&](VertexId u, EdgeId e, const auto& active) {
            const LocalId c = lg.dd().col(e);
            relax_into(s, s.delegate_cand, c, active,
                       weight(lg.dd_weights(), e, u, delegate_of(c)),
                       nullptr);
          });
    // dn: delegates push into local normal distances.
    sweep(s, delegate_verts, s.dist_delegate,
          s.part_dn, s.iter.dn, delegate_of,
          [&](VertexId u, EdgeId e, const auto& active) {
            const LocalId v = lg.dn().col(e);
            relax_into(s, s.dist_normal, v, active,
                       weight(lg.dn_weights(), e, u, global_of(v)),
                       &s.next_normals);
          });
    (s.heavy_round ? s.iter.heavy_edges : s.iter.light_edges) +=
        s.iter.nn.edges + s.iter.nd.edges + s.iter.dd.edges + s.iter.dn.edges;
  }

  void reduce(engine::GpuContext& ctx, State& s, int iteration) {
    // Global delegate candidate min-reduction: d x groups_per_item packed
    // words, folded per sub-lane (kLaneMin) -- one collective for all W
    // lanes.  Every GPU then derives the identical improved-slot set,
    // keeping the replicated delegate buckets in lockstep.
    ctx.comm.value_reducer().reduce(
        ctx.me, std::span<std::uint64_t>(s.delegate_cand),
        comm::ValueReducer::Op::kLaneMin, iteration, 0, kBits);
    s.iter.delegate_update = true;
    const LocalId d = graph_.num_delegates();
    for (LocalId t = 0; t < d; ++t) {
      for (std::size_t g = 0; g < groups_; ++g) {
        fold_word(s.dist_delegate, t, g, s.delegate_cand[t * groups_ + g],
                  s.next_delegates);
      }
    }
  }

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    // Normal stream, concurrent with `reduce` on the delegate stream, and
    // touches only normal-distance state: one record per (destination,
    // lane group), min-coalesced per sub-lane.
    const auto updates = ctx.comm.exchange(
        ctx.me, s.bins, iteration,
        {.combine = comm::UpdateCombine::kLaneMin,
         .value_bias = s.value_bias,
         .lane_value_bits = kBits},
        s.iter);
    const auto groups = static_cast<LocalId>(groups_);
    for (const comm::VertexUpdate& u : updates) {
      fold_word(s.dist_normal, u.vertex / groups, u.vertex % groups, u.value,
                s.next_normals);
    }
  }

  std::uint64_t contribution(engine::GpuContext& ctx, State& s, int) {
    // Join the overlapped reduce/exchange: both feed the control word.
    ctx.delegate_stream.synchronize();
    ctx.normal_stream.synchronize();
    // Remaining work: this round's improvements, everything still queued in
    // buckets (stale entries only delay termination by the final pruning
    // round), and the open bucket's pending heavy round.
    const std::uint64_t heavy_pending =
        (s.mode == Mode::kLight && !s.heavy_round) ? 1 : 0;
    return s.next_normals.size() + s.next_delegates.size() +
           s.normal_buckets.entry_count() + s.delegate_buckets.entry_count() +
           heavy_pending;
  }

  bool end_iteration(engine::GpuContext&, State& s, int,
                     std::uint64_t control) {
    if (s.mode == Mode::kLight) {
      // Classify this round's improvements: back into the open bucket (the
      // next light sub-round's input) or into a future bucket.  A slot may
      // improve several times in one round; dedup first.
      std::sort(s.next_normals.begin(), s.next_normals.end());
      s.next_normals.erase(
          std::unique(s.next_normals.begin(), s.next_normals.end()),
          s.next_normals.end());
      s.fresh_normals.clear();
      s.fresh_delegates.clear();
      classify(s, s.next_normals, s.dist_normal, s.normal_buckets,
               s.fresh_normals);
      classify(s, s.next_delegates, s.dist_delegate, s.delegate_buckets,
               s.fresh_delegates);
      // The heavy round closes the bucket; the next previsit agrees on the
      // next one.
      if (s.heavy_round) s.mode = Mode::kOpenBucket;
    }
    s.next_normals.clear();
    s.next_delegates.clear();
    return control == 0;
  }

  std::size_t groups_per_item() const noexcept { return groups_; }

  /// Distance of (item, lane) widened to 64 bits, the sentinel mapped to
  /// kInfiniteDistance so bucket_of() can never alias a real bucket with
  /// the sentinel's.
  std::uint64_t distance(const Words& words, std::size_t item,
                         int lane) const noexcept {
    const std::uint64_t raw = lane_value(words, item, lane);
    return raw == kMask ? kInfiniteDistance : raw;
  }

 private:
  /// Slot ids interleave lanes at a power-of-two stride (2^lane_bits_ >= W),
  /// so slot <-> (vertex, lane) is shifts and masks, and slot order is
  /// (vertex, lane) order.
  LocalId slot_of(LocalId v, int lane) const noexcept {
    return v << lane_bits_ | static_cast<LocalId>(lane);
  }

  /// Storage word of (item, lane), and the lane's bit offset inside it.
  std::size_t word_of(std::size_t item, int lane) const noexcept {
    return item * groups_ + static_cast<std::size_t>(lane / kLanesPerWord);
  }
  static int shift_of(int lane) noexcept {
    return lane % kLanesPerWord * kBits;
  }

  std::uint64_t lane_value(const Words& words, std::size_t item,
                           int lane) const noexcept {
    return words[word_of(item, lane)] >> shift_of(lane) & kMask;
  }

  std::uint64_t slot_dist(const Words& words, LocalId slot) const noexcept {
    return distance(words, slot >> lane_bits_, lane_of(slot));
  }

  /// Lower (item, lane) to `value`; true when that improved it.
  bool lower_lane(Words& words, std::size_t item, int lane,
                  std::uint64_t value) const noexcept {
    std::uint64_t& word = words[word_of(item, lane)];
    const int sh = shift_of(lane);
    if ((word >> sh & kMask) <= value) return false;
    word = (word & ~(kMask << sh)) | value << sh;
    return true;
  }

  /// Fold the per-lane MIN of `incoming` into word `g` of `item` and queue
  /// the slots it lowered into `next`, in lane order.
  void fold_word(Words& words, LocalId item, std::size_t g,
                 std::uint64_t incoming, std::vector<LocalId>& next) const {
    std::uint64_t& word = words[item * groups_ + g];
    const std::uint64_t cur = word;
    std::uint64_t lowered = cur;
    std::uint64_t improved = 0;
    for (int l = 0; l < kLanesPerWord; ++l) {
      const int sh = l * kBits;
      const std::uint64_t v = incoming >> sh & kMask;
      if (v < (cur >> sh & kMask)) {
        lowered = (lowered & ~(kMask << sh)) | v << sh;
        improved |= 1ULL << l;
      }
    }
    if (improved == 0) return;
    word = lowered;
    const int first_lane = static_cast<int>(g) * kLanesPerWord;
    for (std::uint64_t mm = improved; mm != 0; mm &= mm - 1) {
      next.push_back(slot_of(item, first_lane + std::countr_zero(mm)));
    }
  }

  int lane_of(LocalId slot) const noexcept {
    return static_cast<int>(slot & ((LocalId{1} << lane_bits_) - 1));
  }

  /// The vertices the round relaxes: the light round's fresh slots grouped
  /// by vertex, or the heavy round's settled set.
  const std::vector<ActiveVertex>& active_normals(const State& s) const {
    return s.heavy_round ? s.settled_normals : s.fresh_verts_normal;
  }
  const std::vector<ActiveVertex>& active_delegates(const State& s) const {
    return s.heavy_round ? s.settled_delegates : s.fresh_verts_delegate;
  }

  /// Appends the vertices of the sorted slot list `slots` to `verts`, each
  /// once with its lane mask (a vertex's slots are adjacent).
  void group_by_vertex(const std::vector<LocalId>& slots,
                       std::vector<ActiveVertex>& verts) const {
    for (const LocalId sl : slots) {
      const LocalId v = sl >> lane_bits_;
      if (verts.empty() || verts.back().v != v) verts.push_back({v, 0});
      verts.back().lanes |= 1ULL << lane_of(sl);
    }
  }

  /// Merges a light round's active lanes into the bucket's settled set;
  /// `marks` dedups per vertex within bucket epoch `epoch`.
  static void settle(const std::vector<ActiveVertex>& active,
                     std::uint32_t epoch, std::vector<SettledMark>& marks,
                     std::vector<ActiveVertex>& settled) {
    for (const ActiveVertex& a : active) {
      SettledMark& m = marks[a.v];
      if (m.epoch != epoch) {
        m = {epoch, static_cast<LocalId>(settled.size())};
        settled.push_back(a);
      } else {
        settled[m.index].lanes |= a.lanes;
      }
    }
  }

  /// The active lanes of one source vertex with their distances.  A vertex
  /// with one active lane -- every vertex at W = 1, and common in wide
  /// batches -- uses OneLane, whose loop-invariant lane the compiler hoists
  /// out of the edge loop.
  struct OneLane {
    int lane;
    std::uint64_t dist;
    template <typename F>
    void each(F&& f) const {
      f(lane, dist);
    }
  };
  struct LaneSet {
    std::uint64_t lanes;
    std::array<std::uint64_t, 64> dist;  // indexed by lane
    template <typename F>
    void each(F&& f) const {
      for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
        const int lane = std::countr_zero(mm);
        f(lane, dist[static_cast<std::size_t>(lane)]);
      }
    }
  };

  /// One relax kernel: walk the phase's edge slice of every active vertex
  /// once, calling `relax(source global id, edge, active lanes)` per edge.
  template <typename GlobalFn, typename Relax>
  void sweep(State& s, const std::vector<ActiveVertex>& verts,
             const Words& dist, const EdgePartition& part,
             sim::KernelCounters& k, GlobalFn&& global_of,
             Relax&& relax) const {
    k.launched = !verts.empty();
    k.vertices = verts.size();
    for (const auto& [v, lanes] : verts) {
      const VertexId u = global_of(v);
      const std::span<const EdgeId> edges =
          s.heavy_round ? part.heavy(v) : part.light(v);
      k.edges += edges.size();
      if ((lanes & (lanes - 1)) == 0) {  // one active lane
        const int lane = std::countr_zero(lanes);
        const OneLane one{lane, lane_value(dist, v, lane)};
        for (const EdgeId e : edges) relax(u, e, one);
      } else {
        LaneSet set{lanes, {}};
        set.each([&](int lane, std::uint64_t) {
          set.dist[static_cast<std::size_t>(lane)] = lane_value(dist, v, lane);
        });
        for (const EdgeId e : edges) relax(u, e, set);
      }
    }
  }

  /// One edge's candidates for every active lane as lane-word records into
  /// the owner's bin: sentinel-filled groups, active lanes overwritten, one
  /// record per touched group, in ascending group order.
  template <typename Active>
  void relax_to_bin(State& s, const Active& active, std::uint32_t wgt,
                    LocalId dst_local,
                    std::vector<comm::VertexUpdate>& bin) const {
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t open = kNone;
    std::uint64_t word = 0;
    active.each([&](int lane, std::uint64_t dist) {
      const std::uint64_t cand = dist + wgt;
      if (kBits < 64 && cand >= kMask) {
        s.overflow = true;
        return;
      }
      const std::size_t g = static_cast<std::size_t>(lane / kLanesPerWord);
      if (g != open) {
        if (open != kNone) bin.push_back({record_id(dst_local, open), word});
        open = g;
        word = ~0ULL;
      }
      const int sh = shift_of(lane);
      word = (word & ~(kMask << sh)) | cand << sh;
    });
    if (open != kNone) bin.push_back({record_id(dst_local, open), word});
  }

  LocalId record_id(LocalId item, std::size_t g) const noexcept {
    return static_cast<LocalId>(item * groups_ + g);
  }

  /// Relax every active lane of one edge into an array (delegate candidates
  /// or local normal distances); improvements are queued as slots into
  /// `next` when it is non-null.
  template <typename Active>
  void relax_into(State& s, Words& words, LocalId dst, const Active& active,
                  std::uint32_t wgt, std::vector<LocalId>* next) const {
    active.each([&](int lane, std::uint64_t dist) {
      const std::uint64_t cand = dist + wgt;
      if (kBits < 64 && cand >= kMask) {
        s.overflow = true;
        return;
      }
      if (lower_lane(words, dst, lane, cand) && next != nullptr) {
        next->push_back(slot_of(dst, lane));
      }
    });
  }

  /// Route each improved slot back into the open bucket (`fresh`, unless
  /// this was the heavy round) or into its future bucket.
  void classify(const State& s, const std::vector<LocalId>& improved,
                const Words& dist, BucketState& buckets,
                std::vector<LocalId>& fresh) const {
    for (const LocalId sl : improved) {
      const std::uint64_t d = slot_dist(dist, sl);
      if (!s.heavy_round && buckets.bucket_of(d) == s.current_bucket) {
        fresh.push_back(sl);
      } else {
        buckets.insert(sl, d);
      }
    }
  }

  /// Weight of subgraph edge `e`: the stored per-edge array when the graph
  /// carries weights, otherwise the deterministic endpoint-pair hash.
  std::uint32_t weight(const std::vector<std::uint32_t>& stored,
                       std::uint64_t e, VertexId u, VertexId v) const {
    return stored.empty() ? util::edge_weight(u, v, options_.max_weight)
                          : stored[e];
  }

  const graph::DistributedGraph& graph_;
  const BatchSsspOptions& options_;
  const std::vector<VertexId>& sources_;
  int lane_bits_;  // ceil(log2(W)): slot stride exponent
  std::size_t groups_;
};

/// One engine run of the width-`kBits` instantiation, gathered and modeled.
template <int kBits>
BatchSsspResult run_lanes(const graph::DistributedGraph& graph,
                          sim::Cluster& cluster,
                          const BatchSsspOptions& options,
                          const std::vector<VertexId>& sources) {
  const sim::ClusterSpec spec = graph.spec();
  const int p = spec.total_gpus();
  const LocalId d = graph.num_delegates();
  const int w = static_cast<int>(sources.size());

  BatchSsspAlgorithm<kBits> algo(graph, options, sources);
  engine::IterativeEngine<BatchSsspAlgorithm<kBits>> engine(graph, cluster,
                                                            options.run);
  auto run = engine.run(algo);

  for (int g = 0; g < p; ++g) {
    if (run.state(g).overflow) {
      throw std::overflow_error(
          "batch_sssp: tentative distance reached the value_bits sentinel; "
          "widen BatchSsspOptions::value_bits (util::value_width_for)");
    }
  }

  // ---- Gather. ----------------------------------------------------------
  BatchSsspResult result;
  result.distances.assign(
      static_cast<std::size_t>(w),
      std::vector<std::uint64_t>(graph.num_vertices(), kInfiniteDistance));
  for (int g = 0; g < p; ++g) {
    const auto& s = run.state(g);
    const sim::GpuCoord me = spec.coord_of(g);
    const std::uint64_t n_local = graph.local(g).num_local_normals();
    for (std::uint64_t v = 0; v < n_local; ++v) {
      const VertexId vg = spec.global_vertex(me.rank, me.gpu, v);
      for (int lane = 0; lane < w; ++lane) {
        result.distances[static_cast<std::size_t>(lane)][vg] =
            algo.distance(s.dist_normal, v, lane);
      }
    }
  }
  const auto& s0 = run.state(0);
  for (LocalId t = 0; t < d; ++t) {
    const VertexId vg = graph.delegates().vertex_of(t);
    for (int lane = 0; lane < w; ++lane) {
      result.distances[static_cast<std::size_t>(lane)][vg] =
          algo.distance(s0.dist_delegate, t, lane);
    }
  }

  // ---- Model. ------------------------------------------------------------
  static_cast<ValueRunReport&>(result) = assemble_value_report(
      graph, run.iterations, std::move(run.histories), run.measured_ms,
      std::move(run.fault), options.run.overlap, algo.groups_per_item());
  return result;
}

}  // namespace

DistributedBatchSssp::DistributedBatchSssp(
    const graph::DistributedGraph& graph, sim::Cluster& cluster,
    BatchSsspOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
  if (options_.delta == 0) {
    throw std::invalid_argument("batch_sssp delta must be at least 1");
  }
  if (options_.max_weight == 0) {
    throw std::invalid_argument("batch_sssp max_weight must be at least 1");
  }
  if (options_.value_bits != 8 && options_.value_bits != 16 &&
      options_.value_bits != 32 && options_.value_bits != 64) {
    throw std::invalid_argument(
        "batch_sssp value_bits must be one of 8, 16, 32, 64");
  }
}

BatchSsspResult DistributedBatchSssp::run(
    const std::vector<VertexId>& sources) {
  if (sources.empty() || sources.size() > 64) {
    throw std::invalid_argument("batch_sssp takes 1 to 64 sources");
  }
  for (const VertexId s : sources) {
    if (s >= graph_.num_vertices()) {
      throw std::out_of_range("batch_sssp source out of range");
    }
  }
  switch (options_.value_bits) {
    case 8: return run_lanes<8>(graph_, cluster_, options_, sources);
    case 16: return run_lanes<16>(graph_, cluster_, options_, sources);
    case 32: return run_lanes<32>(graph_, cluster_, options_, sources);
    default: return run_lanes<64>(graph_, cluster_, options_, sources);
  }
}

}  // namespace dsbfs::core
