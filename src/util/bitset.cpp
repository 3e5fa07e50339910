#include "util/bitset.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace dsbfs::util {

void LaneBitset::resize(std::size_t items, int lane_bits) {
  assert(lane_bits > 0 && lane_bits <= 64 && 64 % lane_bits == 0 &&
         "lane width must divide the 64-bit storage word");
  items_ = items;
  lane_bits_ = lane_bits;
  lane_mask_ = lane_bits == 64 ? ~0ULL : (1ULL << lane_bits) - 1;
  words_.assign(word_count(), 0);
}

std::size_t LaneBitset::clear_lanes(std::uint64_t bits) noexcept {
  bits &= lane_mask_;
  if (bits == 0) return 0;
  // Replicate the lane word across the storage word: one AND-NOT per word
  // clears the lane for 64/W items at a time.
  std::uint64_t pattern = 0;
  const int per_word = 64 / lane_bits_;
  for (int j = 0; j < per_word; ++j) {
    pattern |= bits << (j * lane_bits_);
  }
  std::size_t cleared = 0;
  const std::size_t nw = word_count();
  for (std::size_t w = 0; w < nw; ++w) {
    const std::uint64_t hit = words_[w] & pattern;
    if (hit == 0) continue;
    cleared += static_cast<std::size_t>(std::popcount(hit));
    words_[w] &= ~pattern;
  }
  return cleared;
}

std::size_t LaneBitset::count() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

bool LaneBitset::none() const noexcept {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

void LaneBitset::diff_into(const LaneBitset& next, const LaneBitset& prev,
                           LaneBitset& out) noexcept {
  assert(next.items_ == prev.items_ && next.items_ == out.items_);
  assert(next.lane_bits_ == prev.lane_bits_ &&
         next.lane_bits_ == out.lane_bits_);
  for (std::size_t w = 0; w < next.words_.size(); ++w) {
    out.words_[w] = next.words_[w] & ~prev.words_[w];
  }
}

int lane_width_for(std::size_t lanes) noexcept {
  // The traversal substrate quantizes to the widths whose per-vertex state
  // stays word-addressable on a GPU: 1 (the classic mask), one byte, one
  // 32-bit word, one 64-bit word.
  for (const int w : {1, 8, 32}) {
    if (lanes <= static_cast<std::size_t>(w)) return w;
  }
  return 64;
}

}  // namespace dsbfs::util
