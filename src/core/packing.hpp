#pragma once

#include <cstdint>

#include "util/types.hpp"

/// Wire packing of the end-of-run parent-exchange tuples (paper Section
/// VI-A3).
///
/// Traversal ships bare local ids (or id, lane-word records), so the
/// (vertex, lane) pairs discovered through nn edges learn their parent in
/// one extra exchange of (destination local id, lane, sender level) probes.
/// All three fields share one 64-bit word: the low kParentDepthBits carry
/// the level, the next kParentLaneBits the lane, the rest the destination's
/// local id.  The split must fit the visit path's id width -- local ids are
/// 32-bit (util/types.hpp), so every id the exchange can deliver must
/// survive the packing, checked below at the maximum local-id width.
namespace dsbfs::core {

/// Bits of BFS level in a packed parent probe (bounds the supported
/// diameter at 2^21 - 1 hops; Graph500-style graphs stay far below).
inline constexpr int kParentDepthBits = 21;
inline constexpr std::uint64_t kParentDepthMask =
    (1ULL << kParentDepthBits) - 1;
/// Bits of lane index (supports the 64-lane maximum batch width).
inline constexpr int kParentLaneBits = 6;
inline constexpr std::uint64_t kParentLaneMask = (1ULL << kParentLaneBits) - 1;
/// Bits left for the destination local id.
inline constexpr int kLaneParentLocalBits =
    64 - kParentDepthBits - kParentLaneBits;

constexpr std::uint64_t pack_lane_parent_probe(std::uint64_t dest_local,
                                               int lane, Depth level) noexcept {
  return (dest_local << (kParentDepthBits + kParentLaneBits)) |
         ((static_cast<std::uint64_t>(lane) & kParentLaneMask)
          << kParentDepthBits) |
         (static_cast<std::uint64_t>(level) & kParentDepthMask);
}

constexpr LocalId lane_parent_probe_local(std::uint64_t word) noexcept {
  return static_cast<LocalId>(word >> (kParentDepthBits + kParentLaneBits));
}

constexpr int lane_parent_probe_lane(std::uint64_t word) noexcept {
  return static_cast<int>((word >> kParentDepthBits) & kParentLaneMask);
}

constexpr Depth lane_parent_probe_level(std::uint64_t word) noexcept {
  return static_cast<Depth>(word & kParentDepthMask);
}

// The packing must round-trip every 32-bit local id at the deepest
// representable level and the highest lane.
static_assert(kLaneParentLocalBits >= 32,
              "lane parent probes must carry any 32-bit local id");
static_assert(lane_parent_probe_local(pack_lane_parent_probe(
                  kInvalidLocal, 63, static_cast<Depth>(kParentDepthMask))) ==
              kInvalidLocal);
static_assert(lane_parent_probe_lane(pack_lane_parent_probe(
                  kInvalidLocal, 63, static_cast<Depth>(kParentDepthMask))) ==
              63);
static_assert(lane_parent_probe_level(pack_lane_parent_probe(
                  kInvalidLocal, 63, static_cast<Depth>(kParentDepthMask))) ==
              static_cast<Depth>(kParentDepthMask));

}  // namespace dsbfs::core
