#include "comm/mask_reduce.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <thread>

#include "util/bitset.hpp"

namespace dsbfs::comm {
namespace {

/// The BFS delegate-mask reduction: every GPU OR-reduces its mask's words
/// in place, one thread per GPU.
void or_reduce_masks(ValueReducer& reducer, const sim::ClusterSpec& spec,
                     std::vector<util::LaneBitset>& masks, int iteration) {
  std::vector<std::thread> threads;
  for (int g = 0; g < spec.total_gpus(); ++g) {
    threads.emplace_back([&, g] {
      reducer.reduce(spec.coord_of(g),
                     masks[static_cast<std::size_t>(g)].words(),
                     ValueReducer::Op::kOr, iteration);
    });
  }
  for (auto& th : threads) th.join();
}

struct ReduceCase {
  int ranks;
  int gpus_per_rank;
  std::size_t bits;
};

class MaskReduceShapes : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(MaskReduceShapes, ReduceEqualsUnionEverywhere) {
  const ReduceCase param = GetParam();
  sim::ClusterSpec spec;
  spec.num_ranks = param.ranks;
  spec.gpus_per_rank = param.gpus_per_rank;
  const int p = spec.total_gpus();

  Transport t(spec);
  ValueReducer reducer(t, spec);

  // GPU g sets bits g, g + p, g + 2p, ... -- all distinct.
  std::vector<util::LaneBitset> masks(static_cast<std::size_t>(p));
  for (int g = 0; g < p; ++g) {
    masks[static_cast<std::size_t>(g)].resize(param.bits);
    for (std::size_t i = static_cast<std::size_t>(g); i < param.bits;
         i += static_cast<std::size_t>(p)) {
      masks[static_cast<std::size_t>(g)].set(i);
    }
  }
  or_reduce_masks(reducer, spec, masks, /*iteration=*/0);

  for (int g = 0; g < p; ++g) {
    EXPECT_EQ(masks[static_cast<std::size_t>(g)].count(), param.bits)
        << "gpu " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MaskReduceShapes,
    ::testing::Values(ReduceCase{1, 1, 64}, ReduceCase{1, 4, 100},
                      ReduceCase{2, 2, 257}, ReduceCase{4, 1, 1000},
                      ReduceCase{4, 2, 129}, ReduceCase{8, 2, 64},
                      ReduceCase{3, 3, 777}));

TEST(MaskReduce, RepeatedIterationsStaySeparated) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  Transport t(spec);
  ValueReducer reducer(t, spec);
  const int p = spec.total_gpus();

  for (int iteration = 0; iteration < 5; ++iteration) {
    std::vector<util::LaneBitset> masks(static_cast<std::size_t>(p));
    for (int g = 0; g < p; ++g) {
      masks[static_cast<std::size_t>(g)].resize(64);
      masks[static_cast<std::size_t>(g)].set(
          static_cast<std::size_t>(g + iteration * p));
    }
    or_reduce_masks(reducer, spec, masks, iteration);
    for (int g = 0; g < p; ++g) {
      EXPECT_EQ(masks[static_cast<std::size_t>(g)].count(),
                static_cast<std::size_t>(p))
          << "iteration " << iteration;
    }
  }
}

TEST(MaskReduce, TrafficMatchesTwoPhaseModel) {
  // Local phase: (pgpu-1) pushes + (pgpu-1) broadcasts of d/8 bytes per
  // rank.  Global phase: binomial tree among prank leaders, 2*(prank-1)
  // messages of d/8 bytes.  Section V-A's cost accounting.
  sim::ClusterSpec spec;
  spec.num_ranks = 4;
  spec.gpus_per_rank = 2;
  const int p = spec.total_gpus();
  Transport t(spec);
  ValueReducer reducer(t, spec);

  const std::size_t bits = 64 * 100;  // 100 words = 800 bytes
  std::vector<util::LaneBitset> masks(static_cast<std::size_t>(p));
  for (int g = 0; g < p; ++g) masks[static_cast<std::size_t>(g)].resize(bits);
  or_reduce_masks(reducer, spec, masks, 0);

  const std::uint64_t mask_bytes = 800;
  const std::uint64_t local_expected =
      static_cast<std::uint64_t>(spec.num_ranks) *
      2 * (static_cast<std::uint64_t>(spec.gpus_per_rank) - 1) * mask_bytes;
  const std::uint64_t global_expected =
      2 * (static_cast<std::uint64_t>(spec.num_ranks) - 1) * mask_bytes;
  EXPECT_EQ(t.bytes_same_rank(), local_expected);
  EXPECT_EQ(t.bytes_cross_rank(), global_expected);
}

TEST(ValueReduce, MinAcrossTopologies) {
  for (const auto& [ranks, gpus] : {std::pair{1, 1}, {1, 4}, {4, 1}, {3, 2}}) {
    sim::ClusterSpec spec;
    spec.num_ranks = ranks;
    spec.gpus_per_rank = gpus;
    const int p = spec.total_gpus();
    Transport t(spec);
    ValueReducer reducer(t, spec);
    std::vector<std::vector<std::uint64_t>> values(
        static_cast<std::size_t>(p));
    std::vector<std::thread> threads;
    for (int g = 0; g < p; ++g) {
      values[static_cast<std::size_t>(g)] = {
          static_cast<std::uint64_t>(g + 10), ~0ULL,
          static_cast<std::uint64_t>(100 - g)};
      threads.emplace_back([&, g] {
        reducer.reduce(spec.coord_of(g), values[static_cast<std::size_t>(g)],
                       ValueReducer::Op::kMin, 0);
      });
    }
    for (auto& th : threads) th.join();
    for (int g = 0; g < p; ++g) {
      const auto& v = values[static_cast<std::size_t>(g)];
      EXPECT_EQ(v[0], 10u) << ranks << "x" << gpus;
      EXPECT_EQ(v[1], ~0ULL);
      EXPECT_EQ(v[2], static_cast<std::uint64_t>(100 - (p - 1)));
    }
  }
}

TEST(ValueReduce, SumCountsEveryContribution) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 3;
  const int p = spec.total_gpus();
  Transport t(spec);
  ValueReducer reducer(t, spec);
  std::vector<std::vector<std::uint64_t>> values(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    values[static_cast<std::size_t>(g)] = {1, static_cast<std::uint64_t>(g)};
    threads.emplace_back([&, g] {
      reducer.reduce(spec.coord_of(g), values[static_cast<std::size_t>(g)],
                     ValueReducer::Op::kSum, 0);
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t id_sum = p * (p - 1) / 2;
  for (int g = 0; g < p; ++g) {
    EXPECT_EQ(values[static_cast<std::size_t>(g)][0],
              static_cast<std::uint64_t>(p));
    EXPECT_EQ(values[static_cast<std::size_t>(g)][1], id_sum);
  }
}

TEST(ValueReduce, SumDoubleAccumulates) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const int p = spec.total_gpus();
  Transport t(spec);
  ValueReducer reducer(t, spec);
  std::vector<std::uint64_t> results(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::uint64_t word =
          std::bit_cast<std::uint64_t>(0.25 * static_cast<double>(g + 1));
      reducer.reduce(spec.coord_of(g), std::span<std::uint64_t>(&word, 1),
                     ValueReducer::Op::kSumDouble, 0);
      results[static_cast<std::size_t>(g)] = word;
    });
  }
  for (auto& th : threads) th.join();
  for (int g = 0; g < p; ++g) {
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(results[static_cast<std::size_t>(g)]),
                     0.25 * (1 + 2 + 3 + 4));
  }
}

TEST(ValueReduce, RepeatedIterations) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const int p = spec.total_gpus();
  Transport t(spec);
  ValueReducer reducer(t, spec);
  for (int iteration = 0; iteration < 4; ++iteration) {
    std::vector<std::uint64_t> results(static_cast<std::size_t>(p));
    std::vector<std::thread> threads;
    for (int g = 0; g < p; ++g) {
      threads.emplace_back([&, g, iteration] {
        std::uint64_t word = static_cast<std::uint64_t>(g + iteration);
        reducer.reduce(spec.coord_of(g), std::span<std::uint64_t>(&word, 1),
                       ValueReducer::Op::kMin, iteration);
        results[static_cast<std::size_t>(g)] = word;
      });
    }
    for (auto& th : threads) th.join();
    for (const auto r : results) {
      EXPECT_EQ(r, static_cast<std::uint64_t>(iteration));
    }
  }
}

TEST(ValueReduce, ChannelsKeepConcurrentReductionsDisjoint) {
  // Two reductions in the same iteration on different channels (the folded
  // TagBlocks::reduce_channel stride): payloads must not cross even when
  // every GPU runs both concurrently.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const int p = spec.total_gpus();
  Transport t(spec);
  ValueReducer reducer(t, spec);
  std::vector<std::uint64_t> min_results(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> sum_results(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::uint64_t min_word = 100 + static_cast<std::uint64_t>(g);
      std::uint64_t sum_word = 1;
      std::thread inner([&] {
        reducer.reduce(spec.coord_of(g),
                       std::span<std::uint64_t>(&min_word, 1),
                       ValueReducer::Op::kMin, /*iteration=*/0, /*channel=*/0);
      });
      reducer.reduce(spec.coord_of(g), std::span<std::uint64_t>(&sum_word, 1),
                     ValueReducer::Op::kSum, /*iteration=*/0, /*channel=*/1);
      inner.join();
      min_results[static_cast<std::size_t>(g)] = min_word;
      sum_results[static_cast<std::size_t>(g)] = sum_word;
    });
  }
  for (auto& th : threads) th.join();
  for (int g = 0; g < p; ++g) {
    EXPECT_EQ(min_results[static_cast<std::size_t>(g)], 100u);
    EXPECT_EQ(sum_results[static_cast<std::size_t>(g)],
              static_cast<std::uint64_t>(p));
  }
}

TEST(MaskReduce, SingleGpuIsNoop) {
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 1;
  Transport t(spec);
  ValueReducer reducer(t, spec);
  util::LaneBitset mask(64);
  mask.set(5);
  reducer.reduce(sim::GpuCoord{0, 0}, mask.words(), ValueReducer::Op::kOr, 0);
  EXPECT_TRUE(mask.test(5));
  EXPECT_EQ(mask.count(), 1u);
  EXPECT_EQ(t.messages_sent(), 0u);
}

}  // namespace
}  // namespace dsbfs::comm
