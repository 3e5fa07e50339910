#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
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
///   * word-level bulk operations for reduction/broadcast (or_with, diff) --
///     lane-width agnostic, which is what keeps the two-phase mask reduce
///     unchanged across widths,
///   * read-only tests from backward-pull kernels against a *stable*
///     snapshot.
///
/// Two storage flavours share that interface.  LaneBitset keeps relaxed
/// atomic words, so concurrent writers merge losslessly (every mask the
/// reducers touch).  PlainLaneBitset keeps plain words for masks with one
/// writer per phase (the traversal's normal-side masks, its per-stream
/// delegate out-masks and the graph's read-only source masks): `or_lanes`
/// is then an ordinary load-OR-store with no locked read-modify-write, and
/// a second concurrent writer is a data race that ThreadSanitizer reports.
///
/// `lanes<W>` and `or_lanes<W>` are the lane accessors with the width fixed
/// at compile time (W must equal lane_bits()): the kernels dispatch on the
/// width once per launch, so the per-item shift and mask are constants and
/// W = 1 is a plain bit test.
namespace dsbfs::util {

namespace detail {

/// Storage word of LaneBitset: a relaxed atomic that copies by value, so
/// the word vector (and the bitset) stays copyable.
struct AtomicLaneWord {
  std::atomic<std::uint64_t> v{0};
  AtomicLaneWord() = default;
  AtomicLaneWord(std::uint64_t x) : v(x) {}
  AtomicLaneWord(const AtomicLaneWord& o)
      : v(o.v.load(std::memory_order_relaxed)) {}
  AtomicLaneWord& operator=(const AtomicLaneWord& o) {
    v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
};

inline std::uint64_t load_word(const AtomicLaneWord& w) noexcept {
  return w.v.load(std::memory_order_relaxed);
}
inline std::uint64_t load_word(const std::uint64_t& w) noexcept { return w; }
inline void store_word(AtomicLaneWord& w, std::uint64_t x) noexcept {
  w.v.store(x, std::memory_order_relaxed);
}
inline void store_word(std::uint64_t& w, std::uint64_t x) noexcept { w = x; }
/// OR `x` into `w`; returns the previous word.
inline std::uint64_t fetch_or_word(AtomicLaneWord& w,
                                   std::uint64_t x) noexcept {
  return w.v.fetch_or(x, std::memory_order_relaxed);
}
inline std::uint64_t fetch_or_word(std::uint64_t& w,
                                   std::uint64_t x) noexcept {
  const std::uint64_t prev = w;
  w = prev | x;
  return prev;
}

}  // namespace detail

template <typename Word>
class BasicLaneBitset {
 public:
  BasicLaneBitset() = default;
  /// `items` entries of `lane_bits` bits each; lane_bits must divide 64.
  explicit BasicLaneBitset(std::size_t items, int lane_bits = 1) {
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
    return (detail::fetch_or_word(words_[i >> 6], mask) & mask) == 0;
  }

  /// Unlocked set for single-threaded construction phases.
  void set_unsynchronized(std::size_t i) noexcept {
    Word& w = words_[i >> 6];
    detail::store_word(w, detail::load_word(w) | (1ULL << (i & 63)));
  }

  bool test(std::size_t i) const noexcept {
    return (detail::load_word(words_[i >> 6]) >> (i & 63)) & 1;
  }

  // ---- lane interface ----------------------------------------------------

  /// Item v's lane word (bits [v*W, (v+1)*W) right-aligned).
  std::uint64_t lanes(std::size_t v) const noexcept {
    const std::size_t bit = v * static_cast<std::size_t>(lane_bits_);
    return (detail::load_word(words_[bit >> 6]) >> (bit & 63)) & lane_mask_;
  }

  /// OR `bits` (right-aligned, must fit the lane) into item v's lane word
  /// (atomically in LaneBitset); returns the lane word *before* the OR, so
  /// callers can compute newly-set bits (`bits & ~prev`) and first-touch
  /// (`prev == 0`).
  std::uint64_t or_lanes(std::size_t v, std::uint64_t bits) noexcept {
    const std::size_t bit = v * static_cast<std::size_t>(lane_bits_);
    const std::uint64_t prev =
        detail::fetch_or_word(words_[bit >> 6], bits << (bit & 63));
    return (prev >> (bit & 63)) & lane_mask_;
  }

  /// lanes(v) at the compile-time width W == lane_bits().
  template <int W>
  std::uint64_t lanes(std::size_t v) const noexcept {
    assert(W == lane_bits_);
    if constexpr (W == 64) {
      return detail::load_word(words_[v]);
    } else {
      const std::size_t bit = v * W;
      return (detail::load_word(words_[bit >> 6]) >> (bit & 63)) &
             ((1ULL << W) - 1);
    }
  }

  /// or_lanes(v, bits) at the compile-time width W == lane_bits().
  template <int W>
  std::uint64_t or_lanes(std::size_t v, std::uint64_t bits) noexcept {
    assert(W == lane_bits_);
    if constexpr (W == 64) {
      return detail::fetch_or_word(words_[v], bits);
    } else {
      const std::size_t bit = v * W;
      const std::uint64_t prev =
          detail::fetch_or_word(words_[bit >> 6], bits << (bit & 63));
      return (prev >> (bit & 63)) & ((1ULL << W) - 1);
    }
  }

  void clear_all() noexcept {
    for (auto& w : words_) detail::store_word(w, 0);
  }

  /// Clear lane `bits` (right-aligned lane word) of *every* item in one
  /// word-level sweep -- what lane recycling uses to hand a retired lane's
  /// visited state to a new occupant without touching the other lanes.
  /// Single-threaded use only (iteration boundaries).  Returns the number
  /// of bits cleared.
  std::size_t clear_lanes(std::uint64_t bits) noexcept;

  std::uint64_t word(std::size_t w) const noexcept {
    return detail::load_word(words_[w]);
  }
  void set_word(std::size_t w, std::uint64_t value) noexcept {
    detail::store_word(words_[w], value);
  }
  void or_word(std::size_t w, std::uint64_t value) noexcept {
    if (value != 0) detail::fetch_or_word(words_[w], value);
  }

  /// this |= other  (word-parallel; item counts and widths must match; the
  /// other mask may use either storage flavour).
  template <typename OtherWord>
  void or_with(const BasicLaneBitset<OtherWord>& other) noexcept {
    assert(items_ == other.size() && lane_bits_ == other.lane_bits());
    const std::size_t nw = word_count();
    for (std::size_t w = 0; w < nw; ++w) or_word(w, other.word(w));
  }

  /// Number of set bits (across all lanes).
  std::size_t count() const noexcept;

  /// True when no bit is set.
  bool none() const noexcept;

  /// Writes, into `out`, the bits set in `next` but not in `prev`
  /// (out = next & ~prev).  All three must share size and width.  This
  /// extracts "newly visited delegates" (or newly occupied lanes) after a
  /// mask reduction.
  static void diff_into(const BasicLaneBitset& next,
                        const BasicLaneBitset& prev,
                        BasicLaneBitset& out) noexcept;

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

  bool operator==(const BasicLaneBitset& other) const noexcept;

 private:
  std::size_t items_ = 0;
  int lane_bits_ = 1;
  std::uint64_t lane_mask_ = 1;
  std::vector<Word> words_;
};

/// Concurrent lane bitset (relaxed atomic words).
using LaneBitset = BasicLaneBitset<detail::AtomicLaneWord>;
/// Single-writer lane bitset (plain words; see the header comment).
using PlainLaneBitset = BasicLaneBitset<std::uint64_t>;

extern template class BasicLaneBitset<detail::AtomicLaneWord>;
extern template class BasicLaneBitset<std::uint64_t>;

/// Smallest supported lane width that fits `lanes` concurrent lanes.
int lane_width_for(std::size_t lanes) noexcept;

}  // namespace dsbfs::util
