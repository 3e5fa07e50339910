#include "util/lane_value_slab.hpp"

#include <initializer_list>

namespace dsbfs::util {

std::uint64_t LaneValueSlab::lane_min_word(std::uint64_t a, std::uint64_t b,
                                           int value_bits) noexcept {
  if (value_bits == 64) return a < b ? a : b;
  const std::uint64_t mask = (1ULL << value_bits) - 1;
  std::uint64_t out = 0;
  for (int s = 0; s < 64; s += value_bits) {
    const std::uint64_t av = (a >> s) & mask;
    const std::uint64_t bv = (b >> s) & mask;
    out |= (av < bv ? av : bv) << s;
  }
  return out;
}

std::uint64_t LaneValueSlab::lane_add_word(std::uint64_t a, std::uint64_t b,
                                           int value_bits) noexcept {
  if (value_bits == 64) return a + b;
  const std::uint64_t mask = (1ULL << value_bits) - 1;
  std::uint64_t out = 0;
  for (int s = 0; s < 64; s += value_bits) {
    out |= (((a >> s) + (b >> s)) & mask) << s;
  }
  return out;
}

std::uint64_t LaneValueSlab::replicate(std::uint64_t value,
                                       int value_bits) noexcept {
  if (value_bits == 64) return value;
  value &= (1ULL << value_bits) - 1;
  std::uint64_t out = 0;
  for (int s = 0; s < 64; s += value_bits) out |= value << s;
  return out;
}

int value_width_for(std::uint64_t max_value) noexcept {
  // The all-ones pattern of each width is the infinity sentinel, so the
  // largest representable finite value is mask - 1.
  for (int bits : {8, 16, 32}) {
    const std::uint64_t mask = (1ULL << bits) - 1;
    if (max_value < mask) return bits;
  }
  return 64;
}

}  // namespace dsbfs::util
