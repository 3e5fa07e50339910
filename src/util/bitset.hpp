#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

/// Fixed-size lane bitset used for delegate visited masks and,
/// more generally, any per-item W-bit state that is communicated by
/// word-level OR reduction.
///
/// The paper stores the visited status of every delegate in a
/// 1-bit-per-vertex mask (Section IV-A) and communicates it by OR-reduction
/// (Section V-A).  MS-BFS-style batched traversals generalize that mask to a
/// *lane word* per item: W concurrent sources each own one bit of every
/// item's word, and one OR still merges all of them at once (the Section
/// VI-D "more bits of state for delegates" direction).  LaneBitset supports
/// both uses with one layout: item `v` occupies bits [v*W, (v+1)*W) of a
/// packed word array, W in {1, 2, 4, 8, 16, 32, 64} so a lane word never
/// straddles a storage word, and W = 1 is bit-identical to the historic
/// single-source mask.
///
/// Three access patterns coexist:
///   * per-bit `set()` / per-item `or_lanes()` from visit kernels,
///   * word-level bulk operations for reduction/broadcast (or_with, diff,
///     `words()`) -- lane-width agnostic, which is what keeps the two-phase
///     OR reduce unchanged across widths,
///   * read-only tests from backward-pull kernels against a *stable*
///     snapshot.
///
/// The words are plain: every mask has one writer per phase (see
/// core/frontier.hpp), so `or_lanes` is an ordinary load-OR-store with no
/// locked read-modify-write, and a second concurrent writer is a data race
/// that ThreadSanitizer reports.
///
/// `lanes<W>` and `or_lanes<W>` are the lane accessors with the width fixed
/// at compile time (W must equal lane_bits()): the kernels dispatch on the
/// width once per launch, so the per-item shift and mask are constants and
/// W = 1 is a plain bit test.
namespace dsbfs::util {

class LaneBitset {
 public:
  LaneBitset() = default;
  /// `items` entries of `lane_bits` bits each; lane_bits must divide 64.
  explicit LaneBitset(std::size_t items, int lane_bits = 1) {
    resize(items, lane_bits);
  }

  void resize(std::size_t items, int lane_bits = 1);

  /// Item count (== bit count at the historic W = 1).
  std::size_t size() const noexcept { return items_; }
  int lane_bits() const noexcept { return lane_bits_; }
  /// All-ones mask of one lane word.
  std::uint64_t lane_mask() const noexcept { return lane_mask_; }
  std::size_t word_count() const noexcept {
    return (items_ * static_cast<std::size_t>(lane_bits_) + 63) / 64;
  }
  /// Bytes occupied by the payload (what communication would transmit) --
  /// scales with the lane width: ceil(items * W / 8) rounded to words.
  std::size_t byte_size() const noexcept { return word_count() * 8; }

  // ---- flat-bit interface (the W = 1 mask API) --------------------------

  /// Set bit i.  Returns true when this call flipped it from 0 to 1.
  bool set(std::size_t i) noexcept {
    const std::uint64_t mask = 1ULL << (i & 63);
    return (fetch_or(words_[i >> 6], mask) & mask) == 0;
  }

  bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  // ---- lane interface ----------------------------------------------------

  /// Item v's lane word (bits [v*W, (v+1)*W) right-aligned).
  std::uint64_t lanes(std::size_t v) const noexcept {
    const std::size_t bit = v * static_cast<std::size_t>(lane_bits_);
    return (words_[bit >> 6] >> (bit & 63)) & lane_mask_;
  }

  /// OR `bits` (right-aligned, must fit the lane) into item v's lane word;
  /// returns the lane word *before* the OR, so callers can compute
  /// newly-set bits (`bits & ~prev`) and first-touch (`prev == 0`).
  std::uint64_t or_lanes(std::size_t v, std::uint64_t bits) noexcept {
    const std::size_t bit = v * static_cast<std::size_t>(lane_bits_);
    const std::uint64_t prev = fetch_or(words_[bit >> 6], bits << (bit & 63));
    return (prev >> (bit & 63)) & lane_mask_;
  }

  /// lanes(v) at the compile-time width W == lane_bits().
  template <int W>
  std::uint64_t lanes(std::size_t v) const noexcept {
    assert(W == lane_bits_);
    if constexpr (W == 64) {
      return words_[v];
    } else {
      const std::size_t bit = v * W;
      return (words_[bit >> 6] >> (bit & 63)) & ((1ULL << W) - 1);
    }
  }

  /// or_lanes(v, bits) at the compile-time width W == lane_bits().
  template <int W>
  std::uint64_t or_lanes(std::size_t v, std::uint64_t bits) noexcept {
    assert(W == lane_bits_);
    if constexpr (W == 64) {
      return fetch_or(words_[v], bits);
    } else {
      const std::size_t bit = v * W;
      const std::uint64_t prev = fetch_or(words_[bit >> 6], bits << (bit & 63));
      return (prev >> (bit & 63)) & ((1ULL << W) - 1);
    }
  }

  void clear_all() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Clear lane `bits` (right-aligned lane word) of *every* item in one
  /// word-level sweep -- what lane recycling uses to hand a retired lane's
  /// visited state to a new occupant without touching the other lanes.
  /// Single-threaded use only (iteration boundaries).  Returns the number
  /// of bits cleared.
  std::size_t clear_lanes(std::uint64_t bits) noexcept;

  std::uint64_t word(std::size_t w) const noexcept { return words_[w]; }
  void set_word(std::size_t w, std::uint64_t value) noexcept {
    words_[w] = value;
  }
  void or_word(std::size_t w, std::uint64_t value) noexcept {
    words_[w] |= value;
  }
  /// The storage words, for word-level collectives (the two-phase OR
  /// reduce combines them in place).
  std::span<std::uint64_t> words() noexcept { return words_; }

  /// this |= other  (word-parallel; item counts and widths must match).
  void or_with(const LaneBitset& other) noexcept {
    assert(items_ == other.items_ && lane_bits_ == other.lane_bits_);
    const std::size_t nw = word_count();
    for (std::size_t w = 0; w < nw; ++w) words_[w] |= other.words_[w];
  }

  /// Number of set bits (across all lanes).
  std::size_t count() const noexcept;

  /// True when no bit is set.
  bool none() const noexcept;

  /// Writes, into `out`, the bits set in `next` but not in `prev`
  /// (out = next & ~prev).  All three must share size and width.  This
  /// extracts "newly visited delegates" (or newly occupied lanes) after a
  /// mask reduction.
  static void diff_into(const LaneBitset& next, const LaneBitset& prev,
                        LaneBitset& out) noexcept;

  /// Call `fn(index)` for every set bit (flat bit indices).
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    const std::size_t nw = word_count();
    for (std::size_t w = 0; w < nw; ++w) {
      std::uint64_t bitsv = word(w);
      while (bitsv != 0) {
        const int b = __builtin_ctzll(bitsv);
        fn(w * 64 + static_cast<std::size_t>(b));
        bitsv &= bitsv - 1;
      }
    }
  }

  /// Call `fn(item, lane_word)` for every item with a nonzero lane word, in
  /// ascending item order.  Skips zero storage words outright and jumps
  /// from one set bit's item to the next, so sparse rounds cost what the
  /// W = 1 for_each_set scan costs.
  template <typename Fn>
  void for_each_nonzero_lanes(Fn&& fn) const {
    if (lane_bits_ == 1) {  // every set bit is an item
      for_each_set([&fn](std::size_t i) { fn(i, std::uint64_t{1}); });
      return;
    }
    // W is a power of two: shifts stand in for the divisions.
    const int log_w = __builtin_ctz(static_cast<unsigned>(lane_bits_));
    const std::size_t nw = word_count();
    for (std::size_t wi = 0; wi < nw; ++wi) {
      std::uint64_t stored = word(wi);
      while (stored != 0) {
        const int first = __builtin_ctzll(stored) >> log_w << log_w;
        fn((wi << 6 >> log_w) + static_cast<std::size_t>(first >> log_w),
           (stored >> first) & lane_mask_);
        stored &= ~(lane_mask_ << first);
      }
    }
  }

  bool operator==(const LaneBitset& other) const = default;

 private:
  std::size_t items_ = 0;
  int lane_bits_ = 1;
  std::uint64_t lane_mask_ = 1;
  std::vector<std::uint64_t> words_;

  /// OR `x` into `w`; returns the previous word.
  static std::uint64_t fetch_or(std::uint64_t& w, std::uint64_t x) noexcept {
    const std::uint64_t prev = w;
    w = prev | x;
    return prev;
  }
};

/// Smallest supported lane width that fits `lanes` concurrent lanes.
int lane_width_for(std::size_t lanes) noexcept;

}  // namespace dsbfs::util
