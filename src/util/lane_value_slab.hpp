#pragma once

#include <cstdint>

/// The *value-lane* word layout: W packed narrow values per item.
///
/// util::LaneBitset generalized the paper's 1-bit visited mask to W 1-bit
/// lanes; this layout takes the next step, the lane-valued substrate: W
/// concurrent sources each own a `value_bits`-wide *value* (a tentative
/// distance, a shortest-path count) of every item.  Batched delta-stepping
/// relaxes all W sources' distances in one edge sweep, and the exchange
/// ships one wire record per storage word instead of one per (vertex,
/// source) pair -- W * value_bits bits of payload per vertex, exactly the
/// `value_bytes = W * value_width` accounting comm::ExchangeOptions
/// expects.
///
/// Layout: `value_bits` in {8, 16, 32, 64}; 64/value_bits lanes share one
/// storage word (a *lane group*), and every item starts word-aligned at
/// ceil(W / lanes-per-word) words, so a record id maps to (item, group) by
/// div/mod and a value never straddles a storage word.  The all-ones value
/// is the reserved sentinel: "infinity", the identity of the per-lane MIN
/// combine -- mirroring kInfiniteDistance at value_bits=64.
///
/// The owners of such words (core/batch_sssp.cpp, the reducers and the
/// exchange folds) keep them in plain vectors; LaneValueSlab holds the
/// lane-wise word arithmetic they share.
namespace dsbfs::util {

struct LaneValueSlab {
  /// Per-lane MIN of two packed words at width `value_bits`.
  static std::uint64_t lane_min_word(std::uint64_t a, std::uint64_t b,
                                     int value_bits) noexcept;
  /// Per-lane wrapping SUM of two packed words at width `value_bits`.
  static std::uint64_t lane_add_word(std::uint64_t a, std::uint64_t b,
                                     int value_bits) noexcept;
};

/// Smallest supported value width ({8, 16, 32, 64}) representing distances
/// strictly below `max_value` while keeping the all-ones sentinel free.
int value_width_for(std::uint64_t max_value) noexcept;

}  // namespace dsbfs::util
