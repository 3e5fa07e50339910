#include "comm/collectives.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

namespace dsbfs::comm {
namespace {

/// Run `body(index)` on one thread per participant and join.
void run_participants(int n, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) threads.emplace_back([&body, i] { body(i); });
  for (auto& t : threads) t.join();
}

sim::ClusterSpec flat_spec(int n) {
  sim::ClusterSpec s;
  s.num_ranks = n;
  s.gpus_per_rank = 1;
  return s;
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, AllreduceSumCorrectEverywhere) {
  const int n = GetParam();
  Transport t(flat_spec(n));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  std::vector<std::uint64_t> results(static_cast<std::size_t>(n));
  run_participants(n, [&](int i) {
    results[static_cast<std::size_t>(i)] = allreduce_sum(
        t, everyone, i, static_cast<std::uint64_t>(i + 1), kTagUser);
  });
  const std::uint64_t expected =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n + 1) / 2;
  for (const auto r : results) EXPECT_EQ(r, expected);
}

TEST_P(CollectiveSizes, AllreduceOrWordsCorrectEverywhere) {
  const int n = GetParam();
  Transport t(flat_spec(n));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  std::vector<std::vector<std::uint64_t>> words(
      static_cast<std::size_t>(n), std::vector<std::uint64_t>(3, 0));
  run_participants(n, [&](int i) {
    auto& w = words[static_cast<std::size_t>(i)];
    w[0] = 1ULL << i;
    w[2] = static_cast<std::uint64_t>(i % 2) << 63;
    allreduce_or_words(t, everyone, i, w, kTagUser);
  });
  std::uint64_t expect0 = 0;
  for (int i = 0; i < n; ++i) expect0 |= 1ULL << i;
  for (const auto& w : words) {
    EXPECT_EQ(w[0], expect0);
    EXPECT_EQ(w[1], 0u);
    EXPECT_EQ(w[2], n > 1 ? (1ULL << 63) : 0u);
  }
}

TEST_P(CollectiveSizes, BroadcastFromRoot) {
  const int n = GetParam();
  Transport t(flat_spec(n));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  std::vector<std::vector<std::uint64_t>> words(
      static_cast<std::size_t>(n), std::vector<std::uint64_t>(2, 0));
  run_participants(n, [&](int i) {
    auto& w = words[static_cast<std::size_t>(i)];
    if (i == 0) {
      w[0] = 7;
      w[1] = 9;
    }
    broadcast_words(t, everyone, i, w, kTagUser);
  });
  for (const auto& w : words) {
    EXPECT_EQ(w[0], 7u);
    EXPECT_EQ(w[1], 9u);
  }
}

TEST_P(CollectiveSizes, GatherConcatenatesInOrder) {
  const int n = GetParam();
  Transport t(flat_spec(n));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  std::vector<std::uint64_t> root_result;
  run_participants(n, [&](int i) {
    std::vector<std::uint64_t> mine{static_cast<std::uint64_t>(i)};
    auto out = gather_words(t, everyone, i, mine, kTagUser);
    if (i == 0) root_result = std::move(out);
  });
  ASSERT_EQ(root_result.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(root_result[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i));
  }
}

TEST_P(CollectiveSizes, AllgatherVariableLengths) {
  const int n = GetParam();
  Transport t(flat_spec(n));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  std::vector<std::vector<std::uint64_t>> results(static_cast<std::size_t>(n));
  run_participants(n, [&](int i) {
    // Participant i contributes i copies of its id (variable length).
    std::vector<std::uint64_t> mine(static_cast<std::size_t>(i),
                                    static_cast<std::uint64_t>(i));
    results[static_cast<std::size_t>(i)] =
        allgather_words(t, everyone, i, mine, kTagUser);
  });
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < n; ++i) {
    expected.insert(expected.end(), static_cast<std::size_t>(i),
                    static_cast<std::uint64_t>(i));
  }
  for (const auto& r : results) EXPECT_EQ(r, expected);
}

INSTANTIATE_TEST_SUITE_P(ParticipantCounts, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16));

TEST_P(CollectiveSizes, AllreduceMinWords) {
  const int n = GetParam();
  Transport t(flat_spec(n));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  std::vector<std::vector<std::uint64_t>> words(
      static_cast<std::size_t>(n),
      std::vector<std::uint64_t>{0, 0, ~0ULL});
  run_participants(n, [&](int i) {
    auto& w = words[static_cast<std::size_t>(i)];
    w[0] = static_cast<std::uint64_t>(100 + (i * 7) % n);
    w[1] = static_cast<std::uint64_t>(i);
    // w[2] stays UINT64_MAX: the "no candidate" sentinel must survive when
    // everyone has it.
    allreduce_min_words(t, everyone, i, w, kTagUser);
  });
  std::uint64_t expect0 = ~0ULL;
  for (int i = 0; i < n; ++i) {
    expect0 = std::min(expect0, static_cast<std::uint64_t>(100 + (i * 7) % n));
  }
  for (const auto& w : words) {
    EXPECT_EQ(w[0], expect0);
    EXPECT_EQ(w[1], 0u);
    EXPECT_EQ(w[2], ~0ULL);
  }
}

TEST(Collectives, TreeMessageCountIsLinearNotQuadratic) {
  // A binomial tree allreduce sends 2*(n-1) messages (n-1 up, n-1 down),
  // not O(n^2) -- this is the paper's log-depth assumption materialized.
  const int n = 16;
  Transport t(flat_spec(n));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  run_participants(n, [&](int i) {
    allreduce_sum(t, everyone, i, 1, kTagUser);
  });
  EXPECT_EQ(t.messages_sent(), 2u * (n - 1));
}

TEST(Collectives, SubsetParticipants) {
  // Only rank leaders participate in the paper's global phase; verify a
  // strict subset of endpoints can form a collective.
  sim::ClusterSpec spec;
  spec.num_ranks = 3;
  spec.gpus_per_rank = 2;
  Transport t(spec);
  const std::vector<int> leaders{0, 2, 4};  // GPU0 of each rank
  std::vector<std::uint64_t> results(3);
  run_participants(3, [&](int i) {
    results[static_cast<std::size_t>(i)] =
        allreduce_sum(t, leaders, i, 10, kTagUser);
  });
  for (const auto r : results) EXPECT_EQ(r, 30u);
}

}  // namespace
}  // namespace dsbfs::comm
