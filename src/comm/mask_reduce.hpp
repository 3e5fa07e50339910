#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/transport.hpp"

/// Two-phase reduction of per-delegate state (paper Section V-A).
///
/// The state of delegates may be updated by any GPU and consumed by any
/// GPU, so each iteration with delegate updates combines it globally:
///   phase 1 (local):  every GPU in a rank pushes its words to GPU0 of the
///                     rank over NVLink; GPU0 combines them;
///   phase 2 (global): GPU0s of all ranks run an (I)Allreduce-equivalent
///                     tree combine; the result is broadcast back to the
///                     rank's GPUs, which consume it next iteration.
/// The BFS reduces its delegate visited mask, a util::LaneBitset, with the
/// OR combine: W = 1 bit per delegate for single-source BFS, W lanes per
/// delegate for batched (MS-BFS-style) traversals.  OR is word-wise, so the
/// reduction is lane-width agnostic -- only the payload scales, d*W/8 bytes
/// per mask.  Communication volume per mask reduction: 2 * d*W/8 * prank
/// bytes at the rank level, d*W/8 * (pgpu-1) * 2 within each rank -- the
/// tests check the Transport counters against these formulas.  The other
/// combines carry the "more bits of state for delegates" generalization the
/// paper sketches for algorithms beyond BFS (Section VI-D): component labels
/// use MIN, PageRank contributions SUM over doubles.
namespace dsbfs::comm {

/// How the global phase is issued.  The result is the same; only the
/// performance model charges it differently (Section VI-B, Fig. 8).
enum class ReduceMode {
  kBlocking,     // MPI_Allreduce analogue
  kNonBlocking,  // MPI_Iallreduce analogue
};

/// The reducer takes an *iteration index* plus an optional *channel*.  Channels
/// let one algorithm run several concurrent reductions per engine iteration
/// on disjoint tags: channel `c` claims the tag block of virtual iteration
/// `iteration + c * kReduceChannelStride`.  (Historically the engine's
/// TagBlocks applied this stride; the spacing now lives with the tag
/// computation it protects.)
inline constexpr int kReduceChannelStride = 100000;
inline constexpr int kMaxReduceChannels = 4;
/// Channels must not collide with real iteration blocks: any run long
/// enough to reach iteration kReduceChannelStride would alias channel 1
/// (asserted at runtime), and the highest channel's blocks must still fit
/// the int tag space.
static_assert(kReduceChannelStride > 0 && kMaxReduceChannels > 0);
static_assert(static_cast<long long>(kMaxReduceChannels) *
                      kReduceChannelStride * kTagBlock +
                  kTagBlock <
              static_cast<long long>(2147483647),
              "reduction channel tags overflow the int tag space");

class ValueReducer {
 public:
  enum class Op { kMin, kSum, kSumDouble, kLaneMin, kOr };

  ValueReducer(Transport& transport, sim::ClusterSpec spec);

  /// Collective: element-wise combine of `values` across all GPUs; every
  /// GPU ends with the identical combined vector.  For kSumDouble the words
  /// are reinterpreted as IEEE doubles; for kLaneMin each word is a packed
  /// util::LaneValueSlab word combined per sub-lane of `lane_value_bits`
  /// bits (at 64 it degenerates to kMin, taking the identical code path so
  /// W = 1 lane-valued runs reproduce the scalar reducer's traffic
  /// bit-exactly); kOr is the bitwise OR of the delegate visited masks.
  /// `channel` keeps concurrent reductions within one iteration on disjoint
  /// tags.
  void reduce(sim::GpuCoord me, std::span<std::uint64_t> values, Op op,
              int iteration, int channel = 0, int lane_value_bits = 64);

 private:
  Transport& transport_;
  sim::ClusterSpec spec_;
  std::vector<int> rank_leaders_;
};

}  // namespace dsbfs::comm
