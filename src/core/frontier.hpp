#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "comm/exchange.hpp"
#include "comm/mask_reduce.hpp"
#include "core/direction.hpp"
#include "graph/local_graph.hpp"
#include "sim/perf_model.hpp"
#include "util/bitset.hpp"

/// Per-GPU traversal state: GpuState for single-source traversals, its
/// lane-generalized sibling LaneState for batched (multi-source) ones.
///
/// Level/visited conventions (see docs/ARCHITECTURE.md "Iteration/level
/// semantics"):
/// iteration `depth` expands the distance-`depth` frontier; every discovery
/// is assigned distance `depth + 1`.  During visits, the visited masks
/// (`seen_normal`, `delegate_visited`) are a *stable snapshot* of
/// distance <= depth: they change only between iterations (previsit /
/// post-reduce), while the kernels write new discoveries to the per-stream
/// delegate out-masks and to `level_normal` / `next_local` with depth + 1,
/// so backward pulls never observe same-iteration discoveries as parents.
namespace dsbfs::core {

/// Control-word packing for the per-iteration termination allreduce of the
/// traversal algorithms: bit 40+ carries "some GPU has delegate updates",
/// the low bits carry the amount of new normal work (local discoveries +
/// binned vertices).  Shared by DistributedBfs and DistributedBatchBfs so
/// their control words stay comparable at lane width 1.
inline constexpr std::uint64_t kDelegateFlagUnit = 1ULL << 40;

/// Parent encodings used during traversal (decoded at gather time).
inline constexpr VertexId kParentNone = kInvalidVertex;
/// The vertex was received via the nn exchange; its parent is resolved by
/// the end-of-run parent exchange (paper Section VI-A3).
inline constexpr VertexId kParentViaNn = kInvalidVertex - 1;
/// Tag bit: the low bits are a delegate id, not a global vertex id.
inline constexpr VertexId kParentDelegateTag = 1ULL << 62;

/// Records a delegate parent candidate in `slot`, keeping the smaller
/// encoding.  Every candidate recorded in an iteration is a valid parent
/// (all at the frontier depth), but the dd and nd visits may both find one
/// for the same delegate, each in its own stream's array.  The minimum over
/// both arrays is independent of the stream schedule, so parents are
/// bit-stable run-to-run and across exchange topologies.  (Untagged global
/// ids sort below kParentDelegateTag-encoded ones, so normal parents win
/// ties.)
inline void keep_min_parent(VertexId& slot, VertexId candidate) noexcept {
  if (candidate < slot) slot = candidate;
}

/// kSpreadByte[b] moves bit i of b to bit 0 of byte i: the byte-wise bit
/// transpose behind LaneState's depth decoding.
inline constexpr std::array<std::uint64_t, 256> kSpreadByte = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t b = 0; b < 256; ++b) {
    for (int i = 0; i < 8; ++i) table[b] |= ((b >> i) & 1) << (8 * i);
  }
  return table;
}();

/// Byte layers of a vertex's lane distances, eight lanes at a time.  With
/// `planes` depth planes a distance takes depth_byte_layers(planes) bytes,
/// one more than its bits need when `planes` is a multiple of 8, so its top
/// byte stays below 0x80.
inline std::size_t depth_byte_layers(std::size_t planes) noexcept {
  return planes / 8 + 1;
}

/// Byte layer c of lanes [first, first + 8) of one vertex: byte k holds
/// bits 8c..8c+7 of lane (first + k)'s distance, or 0xFF when that lane is
/// unvisited.  `words` are the vertex's plane lane words, `unseen` its
/// complemented visited lane word.  A byte-wise bit transpose: kSpreadByte
/// moves bit (first + k) of plane j's word to bit j - 8c of byte k.
/// Sign-extending a lane's top byte and appending the lower ones
/// (d * 256 + byte) yields its distance or kUnvisited (-1).
inline std::uint64_t depth_byte_layer(const std::uint64_t* words,
                                      std::size_t planes, std::uint64_t unseen,
                                      std::size_t c, int first) noexcept {
  std::uint64_t out = kSpreadByte[(unseen >> first) & 0xFF] * 0xFF;
  for (std::size_t j = 8 * c; j < planes && j < 8 * c + 8; ++j) {
    out |= kSpreadByte[(words[j] >> first) & 0xFF] << (j - 8 * c);
  }
  return out;
}

/// Per-GPU state of a single-source traversal.
///
/// Every array or mask the visits or previsits write has exactly one
/// writer per phase, so none of them needs a locked read-modify-write
/// (the same rules as LaneState; ThreadSanitizer reports a second writer):
///   * `seen_normal` and `frontier_normal` -- the normal previsit, on the
///     GPU thread while both streams are idle;
///   * `level_normal` and `next_local` -- the dn visit (delegate stream),
///     which claims a vertex with a plain load-and-store; the previsit
///     also writes levels of exchange arrivals, with the streams idle;
///   * `delegate_out_dd` and `parent_delegate_dd` -- the dd visit
///     (delegate stream);
///   * `delegate_out_nd` and `parent_delegate_nd` -- the nd visit (normal
///     stream);
///   * `sent` -- the nn visit (normal stream).
/// The nd visit, which runs concurrently with dn, reads `seen_normal`,
/// never `level_normal`.  The delegate out-mask and parent candidates are
/// split per stream because dd and nd run concurrently;
/// `has_delegate_updates` tests both masks and the post-control reduction
/// ORs both, and the parent finalize min-folds both candidate arrays.  The
/// delegate visited masks stay util::AtomicBitset: they are what the mask
/// reducer combines, and visits only read them.
///
/// The state is a plain value: the engine checkpoints it by copy.
class GpuState {
 public:
  /// The parent arrays are allocated only when `record_parents` is set.
  GpuState(const graph::LocalGraph& graph, int total_gpus,
           bool record_parents);

  const graph::LocalGraph& graph() const noexcept { return *graph_; }

  // --- normal vertices -------------------------------------------------
  std::vector<Depth> level_normal;    // distance per local normal
  util::PlainLaneBitset seen_normal;  // level <= depth; stable within iter
  /// Frontier bitmap: the normal previsit marks the frontier here and
  /// extracts it in ascending order, clearing it again (all-zero outside
  /// the previsit).  `frontier_words` lists the words it turned non-zero.
  util::PlainLaneBitset frontier_normal;
  std::vector<std::size_t> frontier_words;
  std::vector<LocalId> frontier;    // distance == depth, ascending
  std::vector<LocalId> next_local;  // dn-visit discoveries (distance depth+1)
  std::vector<LocalId> received;    // exchange arrivals (marked next previsit)

  // --- delegates --------------------------------------------------------
  util::AtomicBitset delegate_visited;  // stable within an iteration
  util::AtomicBitset delegate_new;      // became visited at last extract
  // This iteration's updates, one mask per writing stream.
  util::PlainLaneBitset delegate_out_dd;  // dd visit (delegate stream)
  util::PlainLaneBitset delegate_out_nd;  // nd visit (normal stream)
  std::vector<Depth> level_delegate;
  std::vector<LocalId> delegate_queue;  // delegate frontier this iteration

  // --- direction optimization -------------------------------------------
  DirectionState dir_dd, dir_dn, dir_nd;
  /// Online factor self-tuning (BfsOptions::adaptive_direction); observes
  /// this GPU's kernel counters at end_iteration, re-seeds the factors each
  /// previsit.
  DirectionController controller;
  // Unvisited-source pools (decremented as vertices become visited).
  std::uint64_t unvisited_nd_sources = 0;  // normals with nd edges
  std::uint64_t unvisited_dd_sources = 0;  // delegates with dd edges
  std::uint64_t unvisited_dn_sources = 0;  // delegates with dn edges
  // Forward workloads computed by the previsit.
  double fv_dd = 0, fv_dn = 0, fv_nd = 0;
  double bv_dd = 0, bv_dn = 0, bv_nd = 0;

  // --- exchange ----------------------------------------------------------
  std::vector<std::vector<LocalId>> bins;  // per destination global GPU
  /// nn targets this GPU has binned, one bit per global vertex id.  The nn
  /// visit bins a target only once per run: the first shipment already
  /// gives it a distance of at most the next depth, so a later one cannot
  /// change it (parents come from the finalize's own nn probes).
  util::PlainLaneBitset sent;

  // --- BFS tree (optional; see DistributedBfs::run) -----------------------
  bool record_parents;  // run constant
  /// Per local normal vertex: encoded parent (kParent* conventions);
  /// empty unless record_parents.
  std::vector<VertexId> parent_normal;
  /// Per delegate: this GPU's smallest encoded parent candidate (kParent*
  /// conventions; kParentNone = none), one array per writing stream.  The
  /// parent finalize min-folds the two and min-reduces the result across
  /// GPUs, leaving global parent ids in `parent_delegate_dd`.  Empty
  /// unless record_parents.
  std::vector<VertexId> parent_delegate_dd;  // dd visit (delegate stream)
  std::vector<VertexId> parent_delegate_nd;  // nd visit (normal stream)

  // --- bookkeeping --------------------------------------------------------
  Depth depth = 0;
  sim::GpuIterationCounters iter;  // current iteration (history is kept by
                                   // the IterativeEngine)

  /// Reset iteration-scoped scratch (bins stay allocated).
  void begin_iteration();
  /// Close the iteration (clears the delegate out-masks; `iter` stays valid
  /// until the next begin_iteration so the engine can record it).
  void end_iteration();

  /// True when this GPU's dd or nd visit produced delegate updates (call
  /// once both streams have joined).
  bool has_delegate_updates() const noexcept {
    return !delegate_out_dd.none() || !delegate_out_nd.none();
  }

 private:
  const graph::LocalGraph* graph_;
};

/// Per-GPU state of a batched multi-source traversal (MS-BFS style): the
/// lane-generalized GpuState.  Lane l of every mask and per-lane array
/// belongs to source l of the batch; all lanes advance in lockstep through
/// the same level-synchronous iterations, so one sweep of the
/// degree-separated subgraphs (and one mask reduction, and one exchange)
/// serves every source at once.
///
/// The single-source level arrays generalize to visited lane masks plus
/// per-lane depths; the claim that GpuState expresses as a level
/// load-and-store becomes a lane-word OR whose previous value identifies the
/// newly claimed lanes.  Normal-vertex depths are bit-sliced (`depth_planes`)
/// and stamped once per (vertex, lane) by the normal previsit; no visit
/// kernel writes a depth.  Delegate depths are one slot per (delegate,
/// lane), assigned at the post-control reduction.  The same stable-snapshot rule
/// applies:
/// `seen_normal` and `delegate_visited` only change between iterations
/// (previsit / post-reduce), never during visits, which write
/// `next_normal` / `delegate_out_*` instead.
///
/// Every mask the visits or previsits write has exactly one writer per
/// phase, so those masks are util::PlainLaneBitset (plain words, no locked
/// read-modify-write; ThreadSanitizer reports a second writer):
///   * `seen_normal`, `frontier_normal` and `depth_planes` -- the normal
///     previsit, on the GPU thread while both streams are idle;
///   * `next_normal` -- the dn visit, on the delegate stream;
///   * `delegate_out_dd` and `parent_delegate_dd` -- the dd visit, on the
///     delegate stream;
///   * `delegate_out_nd` and `parent_delegate_nd` -- the nd visit, on the
///     normal stream;
///   * `sent` -- the nn visit, on the normal stream;
///   * seeding and lane recycling write between iterations, with both
///     streams idle.
/// The delegate out-mask and parent candidates are split per stream
/// because dd and nd run concurrently; `has_delegate_updates` tests both
/// masks, `reduce_delegate_updates` ORs both into the reduced mask and the
/// parent finalize min-folds both candidate arrays.  The delegate visited
/// masks stay util::LaneBitset: they are what the mask reducer combines,
/// and visits only read them.
///
/// The state is a plain value: the engine checkpoints it by copy.
class LaneState {
 public:
  /// The parent arrays are allocated only when `record_parents` is set.
  LaneState(const graph::LocalGraph& graph, int total_gpus, int lane_bits,
            bool record_parents);

  const graph::LocalGraph& graph() const noexcept { return *graph_; }
  int lane_bits() const noexcept { return lane_bits_; }

  /// Flat index of (item, lane) in the per-lane delegate-depth and parent
  /// arrays.
  std::size_t slot(std::size_t item, int lane) const noexcept {
    return item * static_cast<std::size_t>(lane_bits_) +
           static_cast<std::size_t>(lane);
  }

  // --- normal vertices -------------------------------------------------
  util::PlainLaneBitset seen_normal;      // visited; stable within an iter
  util::PlainLaneBitset frontier_normal;  // lanes expanded this iteration
  util::PlainLaneBitset next_normal;      // dn-visit discoveries (depth + 1)
  std::vector<LocalId> frontier;    // items with nonzero frontier lanes
  std::vector<LocalId> next_local;  // items first touched by the dn visit
  /// Exchange arrivals: (destination-local id, lane word) updates, folded
  /// into the frontier at the next normal previsit.
  std::vector<comm::VertexUpdate> received;
  /// Bit-sliced distances: bit l of `depth_planes[j].lanes(v)` is bit j of
  /// lane l's distance of v.  A lane bit enters the frontier exactly once,
  /// in the iteration equal to its distance, so the normal previsit stamps
  /// each frontier lane word into the planes of the current depth and no
  /// kernel writes a depth.  Planes are added as the depth first needs them
  /// (bit_width(depth) planes); a lane whose `seen_normal` bit is clear is
  /// unvisited and reads zero in every plane.
  std::vector<util::PlainLaneBitset> depth_planes;

  /// Distance of v in `lane` (visited lanes only: an unvisited lane reads 0).
  Depth lane_depth(std::size_t v, int lane) const noexcept {
    Depth d = 0;
    for (std::size_t j = 0; j < depth_planes.size(); ++j) {
      d |= static_cast<Depth>((depth_planes[j].lanes(v) >> lane) & 1) << j;
    }
    return d;
  }
  /// Loads v's lane word of every depth plane into words[0, planes) and
  /// returns the plane count (at most 32: Depth is 32 bits wide).
  std::size_t depth_words(std::size_t v, std::uint64_t* words) const noexcept {
    for (std::size_t j = 0; j < depth_planes.size(); ++j) {
      words[j] = depth_planes[j].lanes(v);
    }
    return depth_planes.size();
  }
  /// Distances of v in every lane into out[0, lane_bits() rounded up to 8),
  /// kUnvisited where unvisited: the per-vertex decode (depth_byte_layer
  /// over the plane words, eight lanes at a time).
  void decode_depths(std::size_t v, Depth* out) const noexcept;

  // --- delegates --------------------------------------------------------
  util::LaneBitset delegate_visited;  // stable within an iteration
  util::LaneBitset delegate_new;      // lanes that became visited at reduce
  // This iteration's updates, one mask per writing stream.
  util::PlainLaneBitset delegate_out_dd;  // dd visit (delegate stream)
  util::PlainLaneBitset delegate_out_nd;  // nd visit (normal stream)
  std::vector<Depth> depth_delegate;  // indexed by slot(t, lane)
  std::vector<LocalId> delegate_queue;

  // --- direction optimization (BatchBfsOptions::direction == kHybrid) -----
  // The lane generalization of GpuState's machinery: one DirectionState per
  // switchable kernel deciding for the *union* frontier (one pull sweep
  // serves every live lane), unvisited pools counting items untouched in
  // every lane (== the single-source pools at W = 1), and the constant
  // all-active-lanes word the pull kernels mask their candidates with.
  bool direction_optimized = false;   // kHybrid
  bool adaptive_direction = false;
  DirectionState dir_dd, dir_dn, dir_nd;
  DirectionController controller;
  DirectionFactors dd_seed, dn_seed, nd_seed;
  /// Lanes that carry a source: the low `batch size` bits for a batch, the
  /// occupied lanes for the serving scheduler (updated at admit and
  /// retire).  Unused lanes of the lane word stay excluded so pull early
  /// exits are not chasing bits no source owns.
  std::uint64_t batch_mask = 0;
  std::uint64_t unvisited_nd_sources = 0;  // normals with nd edges
  std::uint64_t unvisited_dd_sources = 0;  // delegates with dd edges
  std::uint64_t unvisited_dn_sources = 0;  // delegates with dn edges
  double fv_dd = 0, fv_dn = 0, fv_nd = 0;
  double bv_dd = 0, bv_dn = 0, bv_nd = 0;

  // --- exchange ----------------------------------------------------------
  std::vector<std::vector<comm::VertexUpdate>> bins;  // per dest global GPU
  /// Lanes this GPU has binned per nn target, one lane word per global
  /// vertex id: the nn visit ships each (target, lane) once per run, as
  /// GpuState::sent does at one lane.  Lane recycling clears the column.
  util::PlainLaneBitset sent;

  // --- BFS trees (optional; one per lane) --------------------------------
  bool record_parents;  // run constant
  /// Per (local normal, lane): encoded parent (kParent* conventions);
  /// empty unless record_parents.
  std::vector<VertexId> parent_normal;
  /// Per (delegate, lane), indexed by slot(): the smallest encoded parent
  /// candidate per writing stream, as in GpuState; the parent finalize
  /// leaves the global parent ids in `parent_delegate_dd`.  Empty unless
  /// record_parents.
  std::vector<VertexId> parent_delegate_dd;  // dd visit (delegate stream)
  std::vector<VertexId> parent_delegate_nd;  // nd visit (normal stream)

  // --- bookkeeping --------------------------------------------------------
  Depth depth = 0;
  sim::GpuIterationCounters iter;

  /// Reset iteration-scoped scratch (bins stay allocated).
  void begin_iteration();
  /// Close the iteration (clears the delegate out-masks; `iter` stays valid
  /// until the next begin_iteration so the engine can record it).
  void end_iteration();

  /// True when this GPU's dd or nd visit produced delegate lane updates
  /// (call once both streams have joined).
  bool has_delegate_updates() const noexcept {
    return !delegate_out_dd.none() || !delegate_out_nd.none();
  }

  /// Post-control delegate step.  With `any_updates` (some GPU set the
  /// delegate flag of the control word): OR both per-stream out-masks into
  /// a copy of `delegate_visited`, reduce it across GPUs, extract the newly
  /// visited lanes into `delegate_new`, assign them depth + 1 and adopt the
  /// reduced mask.  Under direction optimization it also takes a delegate
  /// out of the all-lane unvisited pools at its first visited lane (the
  /// single-source pool decrement at W = 1).  Without updates it only
  /// clears `delegate_new`.  Runs on the GPU thread; the normal stream may
  /// still be exchanging, which touches none of these fields.
  void reduce_delegate_updates(comm::MaskReducer& reducer, sim::GpuCoord me,
                               int iteration, comm::ReduceMode mode,
                               bool any_updates);

 private:
  const graph::LocalGraph* graph_;
  int lane_bits_ = 1;
};

}  // namespace dsbfs::core
