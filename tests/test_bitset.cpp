#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include "util/lane_value_slab.hpp"

#include <span>
#include <vector>

namespace dsbfs::util {
namespace {

TEST(Bitset, StartsEmpty) {
  LaneBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.test(i));
}

TEST(Bitset, SetReturnsTrueOnlyOnFirstFlip) {
  LaneBitset b(64);
  EXPECT_TRUE(b.set(7));
  EXPECT_FALSE(b.set(7));
  EXPECT_TRUE(b.test(7));
  EXPECT_EQ(b.count(), 1u);
}

TEST(Bitset, SetAcrossWordBoundaries) {
  LaneBitset b(130);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(128));
}

TEST(Bitset, WordCountRounding) {
  EXPECT_EQ(LaneBitset(0).word_count(), 0u);
  EXPECT_EQ(LaneBitset(1).word_count(), 1u);
  EXPECT_EQ(LaneBitset(64).word_count(), 1u);
  EXPECT_EQ(LaneBitset(65).word_count(), 2u);
  EXPECT_EQ(LaneBitset(65).byte_size(), 16u);
}

TEST(Bitset, OrWithMergesBits) {
  LaneBitset a(200), b(200);
  a.set(3);
  a.set(150);
  b.set(150);
  b.set(199);
  a.or_with(b);
  EXPECT_TRUE(a.test(3));
  EXPECT_TRUE(a.test(150));
  EXPECT_TRUE(a.test(199));
  EXPECT_EQ(a.count(), 3u);
  // b unchanged
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, DiffIntoExtractsNewBits) {
  LaneBitset next(128), prev(128), out(128);
  prev.set(1);
  prev.set(64);
  next.set(1);
  next.set(64);
  next.set(65);
  next.set(100);
  LaneBitset::diff_into(next, prev, out);
  EXPECT_FALSE(out.test(1));
  EXPECT_FALSE(out.test(64));
  EXPECT_TRUE(out.test(65));
  EXPECT_TRUE(out.test(100));
  EXPECT_EQ(out.count(), 2u);
}

TEST(Bitset, DiffIntoOverwritesStaleOutput) {
  LaneBitset next(64), prev(64), out(64);
  out.set(5);  // stale content must be cleared
  next.set(9);
  LaneBitset::diff_into(next, prev, out);
  EXPECT_FALSE(out.test(5));
  EXPECT_TRUE(out.test(9));
}

TEST(Bitset, ForEachSetVisitsExactlySetBits) {
  LaneBitset b(300);
  const std::vector<std::size_t> bits{0, 1, 63, 64, 65, 127, 128, 255, 299};
  for (const auto i : bits) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);  // ascending order by construction
}

TEST(Bitset, ClearAllResets) {
  LaneBitset b(128);
  b.set(2);
  b.set(127);
  b.clear_all();
  EXPECT_TRUE(b.none());
}

TEST(Bitset, CopyIsDeep) {
  LaneBitset a(64);
  a.set(10);
  LaneBitset b = a;
  b.set(20);
  EXPECT_TRUE(a.test(10));
  EXPECT_FALSE(a.test(20));
  EXPECT_TRUE(b.test(10));
  EXPECT_TRUE(b.test(20));
}

TEST(Bitset, EqualityComparesContent) {
  LaneBitset a(64), b(64), c(65);
  a.set(3);
  b.set(3);
  EXPECT_TRUE(a == b);
  b.set(4);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);  // different sizes
}

TEST(Bitset, WordLevelAccess) {
  LaneBitset b(128);
  b.set_word(1, 0xff00ULL);
  EXPECT_TRUE(b.test(64 + 8));
  EXPECT_EQ(b.word(1), 0xff00ULL);
  b.or_word(1, 0x1ULL);
  EXPECT_EQ(b.word(1), 0xff01ULL);
}

class BitsetSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetSizes, CountMatchesSetPattern) {
  const std::size_t n = GetParam();
  LaneBitset b(n);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < n; i += 3) {
    b.set(i);
    ++expected;
  }
  EXPECT_EQ(b.count(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetSizes,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129,
                                           1000, 4096));

// ---- lane-generalized interface (batched MS-BFS substrate) ---------------

TEST(LaneBitset, WidthOneIsTheClassicMask) {
  LaneBitset b(100);  // default width 1
  EXPECT_EQ(b.lane_bits(), 1);
  EXPECT_EQ(b.lane_mask(), 1u);
  EXPECT_EQ(b.word_count(), 2u);  // 100 bits in two words, one per bit
  b.set(42);
  EXPECT_EQ(b.lanes(42), 1u);
  EXPECT_EQ(b.or_lanes(7, 1), 0u);
  EXPECT_TRUE(b.test(7));
}

TEST(LaneBitset, LayoutPacksLanesWithoutStraddling) {
  for (const int w : {1, 8, 32, 64}) {
    LaneBitset b(100, w);
    EXPECT_EQ(b.lane_bits(), w);
    EXPECT_EQ(b.word_count(), (100u * static_cast<std::size_t>(w) + 63) / 64);
    EXPECT_EQ(b.byte_size(), b.word_count() * 8);
  }
}

TEST(LaneBitset, OrLanesReturnsPreviousWord) {
  LaneBitset b(10, 8);
  EXPECT_EQ(b.or_lanes(3, 0b0011), 0u);       // first touch
  EXPECT_EQ(b.or_lanes(3, 0b0110), 0b0011u);  // previous word back
  EXPECT_EQ(b.lanes(3), 0b0111u);
  EXPECT_EQ(b.lanes(2), 0u);  // neighbors untouched
  EXPECT_EQ(b.lanes(4), 0u);
  EXPECT_EQ(b.count(), 3u);
}

TEST(LaneBitset, FullWidthLanesRoundTrip) {
  LaneBitset b(5, 64);
  const std::uint64_t word = 0xdeadbeefcafef00dULL;
  EXPECT_EQ(b.or_lanes(4, word), 0u);
  EXPECT_EQ(b.lanes(4), word);
  EXPECT_EQ(b.lane_mask(), ~0ULL);
}

TEST(LaneBitset, WordOpsAreLaneAgnostic) {
  // The two-phase mask reduce ORs words; lanes must merge transparently.
  LaneBitset a(6, 8), b(6, 8), diff(6, 8);
  a.or_lanes(0, 0x0f);
  b.or_lanes(0, 0xf0);
  b.or_lanes(5, 0x01);
  a.or_with(b);
  EXPECT_EQ(a.lanes(0), 0xffu);
  EXPECT_EQ(a.lanes(5), 0x01u);
  LaneBitset prev(6, 8);
  prev.or_lanes(0, 0x0f);
  LaneBitset::diff_into(a, prev, diff);
  EXPECT_EQ(diff.lanes(0), 0xf0u);
  EXPECT_EQ(diff.lanes(5), 0x01u);
}

TEST(LaneBitset, ForEachNonzeroLanesVisitsOccupiedItems) {
  LaneBitset b(50, 32);
  b.or_lanes(1, 5);
  b.or_lanes(49, 1u << 31);
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;
  b.for_each_nonzero_lanes(
      [&](std::size_t v, std::uint64_t w) { seen.emplace_back(v, w); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::size_t, std::uint64_t>{1, 5}));
  EXPECT_EQ(seen[1],
            (std::pair<std::size_t, std::uint64_t>{49, 1ULL << 31}));
}

template <int W>
void expect_fixed_width_accessors_match() {
  LaneBitset fixed(130, W), runtime(130, W);
  const std::uint64_t mask = W == 64 ? ~0ULL : (1ULL << W) - 1;
  for (std::size_t v = 0; v < 130; v += 3) {
    const std::uint64_t bits = (0x9e3779b97f4a7c15ULL * (v + 1)) & mask;
    EXPECT_EQ(fixed.or_lanes<W>(v, bits), runtime.or_lanes(v, bits));
    EXPECT_EQ(fixed.or_lanes<W>(v, bits >> 1), runtime.or_lanes(v, bits >> 1));
  }
  EXPECT_TRUE(fixed == runtime);
  for (std::size_t v = 0; v < 130; ++v) {
    EXPECT_EQ(fixed.lanes<W>(v), runtime.lanes(v)) << "item " << v;
  }
}

TEST(LaneBitset, FixedWidthAccessorsMatchTheRuntimeWidthOnes) {
  expect_fixed_width_accessors_match<1>();
  expect_fixed_width_accessors_match<8>();
  expect_fixed_width_accessors_match<32>();
  expect_fixed_width_accessors_match<64>();
}

TEST(LaneBitset, ForEachNonzeroLanesIsAscendingAtEveryWidth) {
  for (const int w : {1, 8, 32, 64}) {
    SCOPED_TRACE(w);
    LaneBitset b(200, w);
    const std::vector<std::size_t> items{0, 1, 2, 63, 64, 65, 130, 199};
    for (const std::size_t v : items) b.or_lanes(v, b.lane_mask());
    b.or_lanes(100, 1ULL << (w - 1));  // top lane only
    std::vector<std::size_t> visited;
    b.for_each_nonzero_lanes([&](std::size_t v, std::uint64_t lanes) {
      EXPECT_EQ(lanes, b.lanes(v));
      visited.push_back(v);
    });
    EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2, 63, 64, 65, 100, 130,
                                                 199}));
  }
}

TEST(LaneBitset, ClearLanesSweepsOnlyTheNamedLanes) {
  // 8-bit lanes, 100 items: set a distinct pattern per item, clear lanes
  // {0, 5}, and verify the other lanes survive untouched item by item.
  LaneBitset b(100, 8);
  for (std::size_t v = 0; v < 100; ++v) {
    b.or_lanes(v, (v % 2 == 0) ? 0x21u : 0xc1u);  // all include lane 0
  }
  const std::size_t cleared = b.clear_lanes((1u << 0) | (1u << 5));
  // Every item loses lane 0; the even items lose lane 5 too.
  EXPECT_EQ(cleared, 100u + 50u);
  for (std::size_t v = 0; v < 100; ++v) {
    EXPECT_EQ(b.lanes(v), (v % 2 == 0) ? 0x00u : 0xc0u) << "item " << v;
  }
  // Clearing lanes that hold no bits is a no-op.
  EXPECT_EQ(b.clear_lanes(0x3f), 0u);
  // Bits outside the lane mask are ignored entirely.
  LaneBitset w1(64, 1);
  for (std::size_t v = 0; v < 64; ++v) w1.or_lanes(v, 1);
  EXPECT_EQ(w1.clear_lanes(~1ULL), 0u);
  EXPECT_EQ(w1.count(), 64u);
  EXPECT_EQ(w1.clear_lanes(1), 64u);
  EXPECT_TRUE(w1.none());
}

TEST(LaneBitset, ClearLanesFullWidth) {
  LaneBitset b(5, 64);
  b.or_lanes(2, ~0ULL);
  b.or_lanes(4, 1ULL << 63);
  EXPECT_EQ(b.clear_lanes(1ULL << 63), 2u);
  EXPECT_EQ(b.lanes(2), ~0ULL >> 1);
  EXPECT_EQ(b.lanes(4), 0u);
}

TEST(LaneBitset, WordsSpanViewsTheStorage) {
  // Word-level collectives combine the storage in place through words().
  LaneBitset b(100, 8);
  b.or_lanes(3, 0b0011);
  std::span<std::uint64_t> words = b.words();
  ASSERT_EQ(words.size(), b.word_count());
  EXPECT_EQ(words[0], 0b0011ULL << 24);
  words[0] |= 0b0100ULL << 24;
  words[12] = 0x80;
  EXPECT_EQ(b.lanes(3), 0b0111u);
  EXPECT_EQ(b.lanes(96), 0x80u);
  EXPECT_EQ(b.count(), 4u);
}

TEST(LaneBitset, LaneWidthForQuantizesToSupportedWidths) {
  EXPECT_EQ(lane_width_for(1), 1);
  EXPECT_EQ(lane_width_for(2), 8);
  EXPECT_EQ(lane_width_for(3), 8);
  EXPECT_EQ(lane_width_for(8), 8);
  EXPECT_EQ(lane_width_for(9), 32);
  EXPECT_EQ(lane_width_for(32), 32);
  EXPECT_EQ(lane_width_for(33), 64);
  EXPECT_EQ(lane_width_for(64), 64);
}

TEST(LaneValueSlab, StaticLaneMinAndAddOperateLaneWise) {
  const std::uint64_t x = 0x0007'0007'0007'0007ULL;
  const std::uint64_t y = 0x0009'0009'0009'0009ULL;
  EXPECT_EQ(LaneValueSlab::lane_min_word(x, y, 16), x);
  EXPECT_EQ(LaneValueSlab::lane_add_word(x, y, 16), 0x0010'0010'0010'0010ULL);
  // Lanes compare independently, with no borrow from a neighbour.
  EXPECT_EQ(LaneValueSlab::lane_min_word(0x0001'0009ULL, 0x0002'0007ULL, 16),
            0x0001'0007ULL);
  // Sentinel lanes stay sentinel under min.
  const std::uint64_t inf = ~0ULL;
  EXPECT_EQ(LaneValueSlab::lane_min_word(inf, y, 16), y);
}

}  // namespace
}  // namespace dsbfs::util
