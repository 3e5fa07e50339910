#include "util/bitset.hpp"

#include <bit>
#include <cassert>

namespace dsbfs::util {

template <typename Word>
void BasicLaneBitset<Word>::resize(std::size_t items, int lane_bits) {
  assert(lane_bits > 0 && lane_bits <= 64 && 64 % lane_bits == 0 &&
         "lane width must divide the 64-bit storage word");
  items_ = items;
  lane_bits_ = lane_bits;
  lane_mask_ = lane_bits == 64 ? ~0ULL : (1ULL << lane_bits) - 1;
  words_.assign(word_count(), Word{});
}

template <typename Word>
std::size_t BasicLaneBitset<Word>::clear_lanes(std::uint64_t bits) noexcept {
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
    const std::uint64_t old = word(w);
    const std::uint64_t hit = old & pattern;
    if (hit == 0) continue;
    cleared += static_cast<std::size_t>(std::popcount(hit));
    set_word(w, old & ~pattern);
  }
  return cleared;
}

template <typename Word>
std::size_t BasicLaneBitset<Word>::count() const noexcept {
  std::size_t total = 0;
  const std::size_t nw = word_count();
  for (std::size_t w = 0; w < nw; ++w) {
    total += static_cast<std::size_t>(std::popcount(word(w)));
  }
  return total;
}

template <typename Word>
bool BasicLaneBitset<Word>::none() const noexcept {
  const std::size_t nw = word_count();
  for (std::size_t w = 0; w < nw; ++w) {
    if (word(w) != 0) return false;
  }
  return true;
}

template <typename Word>
void BasicLaneBitset<Word>::diff_into(const BasicLaneBitset& next,
                                      const BasicLaneBitset& prev,
                                      BasicLaneBitset& out) noexcept {
  assert(next.items_ == prev.items_ && next.items_ == out.items_);
  assert(next.lane_bits_ == prev.lane_bits_ &&
         next.lane_bits_ == out.lane_bits_);
  const std::size_t nw = next.word_count();
  for (std::size_t w = 0; w < nw; ++w) {
    out.set_word(w, next.word(w) & ~prev.word(w));
  }
}

template <typename Word>
bool BasicLaneBitset<Word>::operator==(
    const BasicLaneBitset& other) const noexcept {
  if (items_ != other.items_ || lane_bits_ != other.lane_bits_) return false;
  const std::size_t nw = word_count();
  for (std::size_t w = 0; w < nw; ++w) {
    if (word(w) != other.word(w)) return false;
  }
  return true;
}

template class BasicLaneBitset<detail::AtomicLaneWord>;
template class BasicLaneBitset<std::uint64_t>;

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
