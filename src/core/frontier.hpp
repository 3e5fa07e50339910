#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "comm/exchange.hpp"
#include "comm/mask_reduce.hpp"
#include "core/direction.hpp"
#include "graph/local_graph.hpp"
#include "sim/perf_model.hpp"
#include "sim/stream.hpp"
#include "util/bitset.hpp"

/// Per-GPU traversal state of every BFS: LaneState, one lane per source.
/// A single-source BFS is the one-lane instance (W = 1), a batch of up to
/// 64 sources the wider ones.
///
/// Level/visited conventions (see docs/ARCHITECTURE.md "Iteration/level
/// semantics"):
/// iteration `depth` expands the distance-`depth` frontier; every discovery
/// is assigned distance `depth + 1`.  During visits, the visited masks
/// (`seen_normal`, `delegate_visited`) are a *stable snapshot* of
/// distance <= depth: they change only between iterations (previsit /
/// post-reduce), while the kernels write new discoveries to the per-stream
/// delegate out-masks and to `next_normal` / `next_local`, so backward
/// pulls never observe same-iteration discoveries as parents.
namespace dsbfs::core {

/// Control-word packing for the per-iteration termination allreduce of the
/// traversal algorithms: bit 40+ carries "some GPU has delegate updates",
/// the low bits carry the amount of new normal work (local discoveries +
/// binned vertices).  Shared by the BFS facades and the serving scheduler.
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

/// Distances of `count` positions (a multiple of 8, at most 64) whose
/// bits lie across `planes` plane words: bit k of words[j] is bit j of
/// position k's distance, and bit k of `unseen` marks position k
/// unvisited.  Writes out[0, count): the distance, or kUnvisited.  The
/// positions are one vertex's lanes (LaneState::decode_depths) or, at
/// W = 1, the 64 vertices of one storage word.  Eight positions at a time,
/// one depth_byte_layer per byte of the distances, top byte first.
inline void decode_plane_words(const std::uint64_t* words, std::size_t planes,
                               std::uint64_t unseen, int count,
                               Depth* out) noexcept {
  const std::size_t top = depth_byte_layers(planes) - 1;
  for (int first = 0; first < count; first += 8) {
    // The top byte carries the sign (0xFF: unvisited); lower bytes append.
    std::uint64_t layer = depth_byte_layer(words, planes, unseen, top, first);
    for (int k = 0; k < 8; ++k) {
      out[first + k] = static_cast<std::int8_t>(layer >> (8 * k));
    }
    for (std::size_t c = top; c-- > 0;) {
      layer = depth_byte_layer(words, planes, unseen, c, first);
      for (int k = 0; k < 8; ++k) {
        out[first + k] = out[first + k] * 256 +
                         static_cast<Depth>((layer >> (8 * k)) & 0xFF);
      }
    }
  }
}

/// Calls `fn(std::integral_constant<int, W>{})` with W == `lane_bits`, one
/// of util::lane_width_for's widths {1, 8, 32, 64}: the once-per-launch
/// width dispatch in front of the lane kernels, which are templates on W.
template <typename Fn>
decltype(auto) with_lane_width(int lane_bits, Fn&& fn) {
  switch (lane_bits) {
    case 1: return fn(std::integral_constant<int, 1>{});
    case 8: return fn(std::integral_constant<int, 8>{});
    case 32: return fn(std::integral_constant<int, 32>{});
    default:
      assert(lane_bits == 64);
      return fn(std::integral_constant<int, 64>{});
  }
}

/// Per-GPU state of a BFS over W lanes (MS-BFS style).  Lane l of every
/// mask and per-lane array belongs to source l; all lanes advance in
/// lockstep through the same level-synchronous iterations, so one sweep of
/// the degree-separated subgraphs (and one mask reduction, and one
/// exchange) serves every source at once.  W = 1 is the single-source BFS.
///
/// Visited state is a lane mask per vertex; a claim is a lane-word OR whose
/// previous value identifies the newly claimed lanes.  Normal-vertex depths
/// are bit-sliced (`depth_planes`) and stamped once per (vertex, lane) by
/// the normal previsit; no visit kernel writes a depth.  Delegate depths are
/// one slot per (delegate, lane), assigned at the post-control reduction.
///
/// W only changes representations, never the traversal: at W = 1 the
/// previsit extracts the frontier in ascending order from the bitmap and
/// clears the bitmap behind it (`frontier_words`), and the nn visit bins
/// bare ids (`id_bins`, exchanged as 4-byte ids, with the local all2all
/// option available) in place of (id, lane word) updates (`bins`).
///
/// Every mask and per-lane array has exactly one writer per phase, so the
/// masks are plain-word util::LaneBitsets (no locked read-modify-write;
/// ThreadSanitizer reports a second writer):
///   * `seen_normal`, `frontier_normal`, `frontier_words` and
///     `depth_planes` -- the normal previsit, on the GPU thread while both
///     streams are idle;
///   * `next_normal`, `next_local` and `parent_normal` -- the dn visit,
///     on the delegate stream (the previsit also marks nn arrivals'
///     parents, with both streams idle);
///   * `delegate_out_dd` and `parent_delegate_dd` -- the dd visit, on the
///     delegate stream;
///   * `delegate_out_nd` and `parent_delegate_nd` -- the nd visit, on the
///     normal stream;
///   * `sent`, `pending`, `bins`, `id_bins` and `bins_total` -- the nn
///     visit, on the normal stream;
///   * `delegate_visited` and `delegate_new` -- the post-control delegate
///     step, on the GPU thread once every visit has joined (the exchange
///     still running on the normal stream touches neither); the visits
///     only read them;
///   * seeding and lane recycling write between iterations, with both
///     streams idle.
/// The delegate out-mask and parent candidates are split per stream
/// because dd and nd run concurrently; `has_delegate_updates` tests both
/// masks, `reduce_delegate_updates` ORs both into the reduced mask and the
/// parent finalize min-folds both candidate arrays.
///
/// The state is a plain value: the engine checkpoints it by copy.
class LaneState {
 public:
  /// The parent arrays are allocated only when `record_parents` is set.
  /// `lane_bits` is one of {1, 8, 32, 64} (util::lane_width_for).
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
  util::LaneBitset seen_normal;      // visited; stable within an iter
  /// Lanes expanded this iteration.  At W = 1 the previsit clears it again
  /// as it extracts the frontier (all-zero outside the previsit), so
  /// `frontier_words` lists the words it turned non-zero; the one-lane
  /// visits know every frontier item's lane word is 1.
  util::LaneBitset frontier_normal;
  std::vector<std::size_t> frontier_words;
  util::LaneBitset next_normal;      // dn-visit discoveries (depth + 1)
  /// Items with nonzero frontier lanes (ascending at W = 1).
  std::vector<LocalId> frontier;
  std::vector<LocalId> next_local;  // items first touched by the dn visit
  /// Exchange arrivals, folded into the frontier at the next normal
  /// previsit: (destination-local id, lane word) updates, or bare ids at
  /// W = 1.
  std::vector<comm::VertexUpdate> received;
  std::vector<LocalId> id_received;
  /// Bit-sliced distances: bit l of `depth_planes[j].lanes(v)` is bit j of
  /// lane l's distance of v.  A lane bit enters the frontier exactly once,
  /// in the iteration equal to its distance, so the normal previsit stamps
  /// each frontier lane word into the planes of the current depth and no
  /// kernel writes a depth.  Planes are added as the depth first needs them
  /// (bit_width(depth) planes); a lane whose `seen_normal` bit is clear is
  /// unvisited and reads zero in every plane.
  std::vector<util::LaneBitset> depth_planes;

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
  /// kUnvisited where unvisited.
  void decode_depths(std::size_t v, Depth* out) const noexcept {
    std::array<std::uint64_t, 32> words;
    decode_plane_words(words.data(), depth_words(v, words.data()),
                       ~seen_normal.lanes(v), (lane_bits_ + 7) / 8 * 8, out);
  }

  // --- delegates --------------------------------------------------------
  util::LaneBitset delegate_visited;  // stable within an iteration
  util::LaneBitset delegate_new;      // lanes that became visited at reduce
  // This iteration's updates, one mask per writing stream.
  util::LaneBitset delegate_out_dd;  // dd visit (delegate stream)
  util::LaneBitset delegate_out_nd;  // nd visit (normal stream)
  std::vector<Depth> depth_delegate;  // indexed by slot(t, lane)
  std::vector<LocalId> delegate_queue;

  // --- direction optimization (BfsOptions::direction_optimized) ------------
  // One DirectionState per switchable kernel deciding for the *union*
  // frontier (one pull sweep serves every live lane), unvisited pools
  // counting items untouched in every lane (the single-source pools at
  // W = 1) beside the edge mass of their rows (the cap on an early-exit
  // pull's scan, lane_backward_workload), and the constant
  // all-active-lanes word the pull kernels mask their candidates with.
  // The pools are host scalars, settled at the sites that take an item
  // out of its count.
  bool direction_optimized = false;   // kHybrid
  bool adaptive_direction = false;
  DirectionState dir_dd, dir_dn, dir_nd;
  DirectionController controller;
  /// Lanes that carry a source: the low `batch size` bits for a batch, the
  /// occupied lanes for the serving scheduler (updated at admit and
  /// retire).  Unused lanes of the lane word stay excluded so pull early
  /// exits are not chasing bits no source owns.
  std::uint64_t batch_mask = 0;
  std::uint64_t unvisited_nd_sources = 0;  // normals with nd edges
  std::uint64_t unvisited_dd_sources = 0;  // delegates with dd edges
  std::uint64_t unvisited_dn_sources = 0;  // delegates with dn edges
  std::uint64_t unvisited_nd_edges = 0;    // their nd row mass
  std::uint64_t unvisited_dd_edges = 0;    // their dd row mass
  std::uint64_t unvisited_dn_edges = 0;    // their dn row mass
  double fv_dd = 0, fv_dn = 0, fv_nd = 0;
  double bv_dd = 0, bv_dn = 0, bv_nd = 0;

  // --- exchange ----------------------------------------------------------
  /// nn visit output per destination global GPU: (id, lane word) updates,
  /// or bare ids at W = 1.
  std::vector<std::vector<comm::VertexUpdate>> bins;
  std::vector<std::vector<LocalId>> id_bins;
  /// Records the nn visit binned; `bins_ready` is signalled on the normal
  /// stream behind the visit, ahead of the exchange that consumes the bins.
  std::uint64_t bins_total = 0;
  sim::Event bins_ready;
  /// Lanes this GPU has binned per nn target, one lane word per ghost
  /// (graph::GhostTable): the nn visit ships each (target, lane) once per
  /// run.  The first shipment already gives the target a distance of at
  /// most the next depth, so a later one cannot change it (parents come
  /// from the finalize's own nn probes).  Lane recycling clears the column.
  util::LaneBitset sent;
  /// The frontier lanes that reach each ghost in this iteration: the nn
  /// visit ORs every edge's lanes in, then bins `pending & ~sent` owner by
  /// owner and clears it.  Scratch like `bins`: all-zero at every
  /// iteration boundary.
  util::LaneBitset pending;

  // --- BFS trees (optional; one per lane) --------------------------------
  bool record_parents;  // run constant
  /// Per (local normal, lane): encoded parent (kParent* conventions);
  /// empty unless record_parents.
  std::vector<VertexId> parent_normal;
  /// Per (delegate, lane), indexed by slot(): the smallest encoded parent
  /// candidate per writing stream (keep_min_parent); the parent finalize
  /// min-folds the two, min-reduces across GPUs and leaves the global
  /// parent ids in `parent_delegate_dd`.  Empty unless record_parents.
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

  /// Bytes of the modeled device state, what a checkpoint copies: 4-byte
  /// depth slots per (item, lane), the three lane masks on each side and
  /// the nn sent mask.  The host's bit-sliced depth planes and the
  /// iteration scratch (`pending`, the bins) do not count.
  std::uint64_t device_bytes() const noexcept;

  /// Seeds `lane` at global vertex `source` at `depth`.  A delegate source
  /// (`delegate` != kInvalidLocal) activates on every GPU, its adjacency
  /// being scattered; a normal source only on its owner, where it is
  /// claimed like a dn discovery and the next normal previsit stamps it.
  void seed(int lane, VertexId source, LocalId delegate, Depth depth);

  /// OR of the lanes that exchange arrivals carry and this GPU has not yet
  /// seen: the arrivals' share of the serving scheduler's drain word.
  std::uint64_t unseen_arrival_lanes() const noexcept;
  /// Drops lane `bit` from every exchange arrival (lane recycling).
  void clear_arrival_lanes(std::uint64_t bit) noexcept;

  /// Post-control delegate step.  With `any_updates` (some GPU set the
  /// delegate flag of the control word): OR both per-stream out-masks into
  /// a copy of `delegate_visited`, OR-reduce its words across GPUs
  /// (ValueReducer::Op::kOr), extract the newly visited lanes into
  /// `delegate_new`, assign them depth + 1 and adopt the reduced mask.
  /// Under direction optimization it also takes a delegate and its row
  /// mass out of the all-lane unvisited pools at its first visited lane
  /// (the single-source pool decrement at W = 1).  Without updates it only
  /// clears `delegate_new`.  Runs on the GPU thread; the normal stream may
  /// still be exchanging, which touches none of these fields.
  void reduce_delegate_updates(comm::ValueReducer& reducer, sim::GpuCoord me,
                               int iteration, bool any_updates);

 private:
  /// Takes delegate t, at its first visited lane, out of the dd and dn
  /// unvisited pools and their edge masses.
  void leave_delegate_pools(std::size_t t) noexcept;

  const graph::LocalGraph* graph_;
  int lane_bits_ = 1;
};

}  // namespace dsbfs::core
