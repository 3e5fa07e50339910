#include "core/bucket.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "util/hash.hpp"

namespace dsbfs::core {
namespace {

TEST(BucketState, BucketOfMapsDistancesToWidthDeltaRanges) {
  const BucketState b(4);
  EXPECT_EQ(b.bucket_of(0), 0u);
  EXPECT_EQ(b.bucket_of(3), 0u);
  EXPECT_EQ(b.bucket_of(4), 1u);
  EXPECT_EQ(b.bucket_of(41), 10u);
  EXPECT_EQ(b.bucket_of(kInfiniteDistance), kNoBucket);
  EXPECT_EQ(b.bucket_base(10), 40u);
}

TEST(BucketState, InfiniteDeltaDegeneratesToSingleBucket) {
  const BucketState b(kInfiniteDistance);
  EXPECT_EQ(b.bucket_of(0), 0u);
  EXPECT_EQ(b.bucket_of(1ULL << 60), 0u);
  EXPECT_EQ(b.bucket_of(kInfiniteDistance), kNoBucket);
}

TEST(BucketState, RejectsZeroDelta) {
  EXPECT_THROW(BucketState(0), std::invalid_argument);
}

TEST(BucketState, TakeReturnsSortedUniqueValidEntries) {
  BucketState b(10);
  std::vector<std::uint64_t> dist = {5, 7, 25, kInfiniteDistance};
  const auto dist_of = [&](LocalId v) { return dist[v]; };
  b.insert(1, dist[1]);
  b.insert(0, dist[0]);
  b.insert(1, dist[1]);  // duplicate insert of the same vertex
  b.insert(2, dist[2]);
  EXPECT_EQ(b.entry_count(), 4u);

  const auto got = b.take_with(0, dist_of);
  EXPECT_EQ(got, (std::vector<LocalId>{0, 1}));
  EXPECT_EQ(b.take_with(0, dist_of),
            std::vector<LocalId>{});  // bucket consumed
  EXPECT_EQ(b.take_with(2, dist_of), std::vector<LocalId>{2});
  EXPECT_EQ(b.entry_count(), 0u);
}

TEST(BucketState, StaleEntriesAreDroppedAgainstCurrentDistances) {
  BucketState b(10);
  std::vector<std::uint64_t> dist = {35, 0};
  const auto dist_of = [&](LocalId v) { return dist[v]; };
  b.insert(0, dist[0]);  // queued in bucket 3...
  dist[0] = 12;          // ...then improved into bucket 1 behind its back
  b.insert(0, dist[0]);
  EXPECT_EQ(b.min_bucket_with(dist_of), 1u);
  EXPECT_EQ(b.take_with(1, dist_of), std::vector<LocalId>{0});
  // The bucket-3 entry is now stale; min_bucket_with prunes it and reports
  // empty.
  EXPECT_EQ(b.min_bucket_with(dist_of), kNoBucket);
  EXPECT_EQ(b.entry_count(), 0u);
}

TEST(BucketState, MinBucketFindsSmallestValidAndCountsInserts) {
  BucketState b(2);
  std::vector<std::uint64_t> dist = {9, 4, 2};
  const auto dist_of = [&](LocalId v) { return dist[v]; };
  b.insert(0, dist[0]);
  b.insert(2, dist[2]);
  EXPECT_EQ(b.min_bucket_with(dist_of), 1u);
  EXPECT_EQ(b.inserted_total(), 2u);
}

TEST(EdgePartition, SplitsEveryRowByWeightAgainstDelta) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 8, .seed = 5});
  const graph::HostCsr csr = graph::build_host_csr(g);
  const std::uint64_t delta = 7;
  const std::uint32_t max_weight = 15;
  const auto weight_of = [&](std::size_t r, std::uint64_t e) {
    return util::edge_weight(r, csr.col(e), max_weight);
  };
  const EdgePartition part = EdgePartition::build(csr, delta, weight_of);

  std::uint64_t light = 0, heavy = 0;
  for (std::size_t r = 0; r < csr.num_rows(); ++r) {
    std::vector<bool> seen(csr.row_length(r), false);
    for (const EdgeId e : part.light(r)) {
      EXPECT_LE(weight_of(r, e), delta);
      seen[e - csr.row_begin(r)] = true;
      ++light;
    }
    for (const EdgeId e : part.heavy(r)) {
      EXPECT_GT(weight_of(r, e), delta);
      seen[e - csr.row_begin(r)] = true;
      ++heavy;
    }
    // The two slices are a partition of the row: every edge exactly once.
    EXPECT_EQ(part.light(r).size() + part.heavy(r).size(), csr.row_length(r));
    for (const bool s : seen) EXPECT_TRUE(s);
  }
  EXPECT_EQ(light + heavy, csr.num_edges());
  EXPECT_EQ(part.light_edges(), light);
  EXPECT_EQ(part.heavy_edges(), heavy);
  EXPECT_GT(light, 0u);
  EXPECT_GT(heavy, 0u);
  EXPECT_GT(part.bytes(), 0u);
}

TEST(EdgePartition, InfiniteDeltaMakesEveryEdgeLight) {
  const graph::EdgeList g = graph::path_graph(16);
  const graph::HostCsr csr = graph::build_host_csr(g);
  const EdgePartition part = EdgePartition::build(
      csr, kInfiniteDistance, [&](std::size_t r, std::uint64_t e) {
        return util::edge_weight(r, csr.col(e), 15);
      });
  EXPECT_EQ(part.light_edges(), csr.num_edges());
  EXPECT_EQ(part.heavy_edges(), 0u);
}

}  // namespace
}  // namespace dsbfs::core
