#include "comm/exchange.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <thread>

#include "baseline/host_apps.hpp"
#include "core/components.hpp"
#include "core/sssp.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace dsbfs::comm {
namespace {

struct ExchangeSetup {
  sim::ClusterSpec spec;
  ExchangeOptions options;
};

/// Run one collective exchange where GPU g sends value (g*1000 + dest) to
/// every destination GPU `dest`, and return everyone's received vectors.
std::vector<std::vector<LocalId>> run_exchange(
    const ExchangeSetup& setup, std::vector<ExchangeCounters>* counters_out,
    int duplicates = 1) {
  const int p = setup.spec.total_gpus();
  Transport t(setup.spec);
  std::vector<std::vector<LocalId>> received(static_cast<std::size_t>(p));
  std::vector<ExchangeCounters> counters(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<LocalId>> bins(static_cast<std::size_t>(p));
      for (int dest = 0; dest < p; ++dest) {
        for (int dup = 0; dup < duplicates; ++dup) {
          bins[static_cast<std::size_t>(dest)].push_back(
              static_cast<LocalId>(g * 1000 + dest));
        }
      }
      received[static_cast<std::size_t>(g)] =
          exchange(t, setup.spec, setup.spec.coord_of(g), bins,
                   /*iteration=*/0, setup.options,
                   counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  if (counters_out != nullptr) *counters_out = std::move(counters);
  return received;
}

void expect_correct_delivery(const sim::ClusterSpec& spec,
                             std::vector<std::vector<LocalId>> received,
                             int copies = 1) {
  const int p = spec.total_gpus();
  for (int g = 0; g < p; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    std::sort(r.begin(), r.end());
    std::vector<LocalId> expected;
    for (int sender = 0; sender < p; ++sender) {
      for (int c = 0; c < copies; ++c) {
        expected.push_back(static_cast<LocalId>(sender * 1000 + g));
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(r, expected) << "gpu " << g;
  }
}

struct NamedCase {
  const char* name;
  int ranks, gpus;
  bool local_all2all, uniquify;
};

class ExchangePatterns : public ::testing::TestWithParam<NamedCase> {};

TEST_P(ExchangePatterns, EveryIdReachesItsOwner) {
  const NamedCase c = GetParam();
  ExchangeSetup setup;
  setup.spec.num_ranks = c.ranks;
  setup.spec.gpus_per_rank = c.gpus;
  setup.options = {
      .combine = c.uniquify ? UpdateCombine::kOr : UpdateCombine::kNone,
      .local_all2all = c.local_all2all};
  auto received = run_exchange(setup, nullptr);
  expect_correct_delivery(setup.spec, std::move(received));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ExchangePatterns,
    ::testing::Values(NamedCase{"direct_1x1", 1, 1, false, false},
                      NamedCase{"direct_1x4", 1, 4, false, false},
                      NamedCase{"direct_4x1", 4, 1, false, false},
                      NamedCase{"direct_2x2", 2, 2, false, false},
                      NamedCase{"direct_3x3", 3, 3, false, false},
                      NamedCase{"l_2x2", 2, 2, true, false},
                      NamedCase{"l_4x2", 4, 2, true, false},
                      NamedCase{"l_3x3", 3, 3, true, false},
                      NamedCase{"lu_2x2", 2, 2, true, true},
                      NamedCase{"lu_4x4", 4, 4, true, true},
                      NamedCase{"u_only_2x2", 2, 2, false, true}),
    [](const auto& info) { return info.param.name; });

TEST(Exchange, UniquifyRemovesDuplicates) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 2;
  setup.spec.gpus_per_rank = 2;
  setup.options = {.combine = UpdateCombine::kOr, .local_all2all = true};
  std::vector<ExchangeCounters> counters;
  auto received = run_exchange(setup, &counters, /*duplicates=*/3);
  // Remote bins deduplicate to one copy; the local loopback bin and
  // same-rank traffic keep duplicates (uniquify targets remote sends).
  const int p = setup.spec.total_gpus();
  std::uint64_t removed = 0;
  for (const auto& c : counters) removed += c.duplicates_removed;
  // Each GPU sends to 1 remote rank after L (2 ranks total): that column
  // bin had 2 senders' worth with 3 copies each -> duplicates exist.
  EXPECT_GT(removed, 0u);
  for (int g = 0; g < p; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    // After dedup, each remote sender's id appears once; local copies stay.
    std::sort(r.begin(), r.end());
    EXPECT_TRUE(std::is_sorted(r.begin(), r.end()));
  }
}

TEST(Exchange, NoUniquifyKeepsDuplicates) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 2;
  setup.spec.gpus_per_rank = 1;
  setup.options = {};
  auto received = run_exchange(setup, nullptr, /*duplicates=*/2);
  expect_correct_delivery(setup.spec, std::move(received), /*copies=*/2);
}

TEST(Exchange, LocalAll2AllEliminatesCrossColumnRemotePairs) {
  // With L, remote messages only connect GPUs with equal local index:
  // message count per iteration drops from p*(p-pgpu) to pgpu*prank*(prank-1)
  // (p^2 -> p^2/pgpu scaling, Section V-B).
  ExchangeSetup direct;
  direct.spec.num_ranks = 4;
  direct.spec.gpus_per_rank = 4;
  direct.options = {};

  ExchangeSetup with_l = direct;
  with_l.options = {.local_all2all = true};

  Transport td(direct.spec);
  {
    std::vector<std::thread> threads;
    for (int g = 0; g < direct.spec.total_gpus(); ++g) {
      threads.emplace_back([&, g] {
        std::vector<std::vector<LocalId>> bins(
            static_cast<std::size_t>(direct.spec.total_gpus()));
        for (auto& b : bins) b.push_back(1);
        ExchangeCounters c;
        exchange(td, direct.spec, direct.spec.coord_of(g), bins, 0,
                 direct.options, c);
      });
    }
    for (auto& th : threads) th.join();
  }

  Transport tl(with_l.spec);
  {
    std::vector<std::thread> threads;
    for (int g = 0; g < with_l.spec.total_gpus(); ++g) {
      threads.emplace_back([&, g] {
        std::vector<std::vector<LocalId>> bins(
            static_cast<std::size_t>(with_l.spec.total_gpus()));
        for (auto& b : bins) b.push_back(1);
        ExchangeCounters c;
        exchange(tl, with_l.spec, with_l.spec.coord_of(g), bins, 0,
                 with_l.options, c);
      });
    }
    for (auto& th : threads) th.join();
  }

  // Count cross-rank messages: direct = p * (p - pgpu) = 16*12 = 192;
  // with L = p * (prank - 1) = 16*3 = 48.
  // (Transport counts all messages; same-rank ones differ too, but the
  // cross-rank byte counter isolates the remote pattern.)
  EXPECT_GT(td.bytes_cross_rank(), tl.bytes_cross_rank() * 2);
}

TEST(Exchange, CountersTrackRemoteBytes) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 2;
  setup.spec.gpus_per_rank = 1;
  setup.options = {};
  std::vector<ExchangeCounters> counters;
  run_exchange(setup, &counters);
  // GPU 0 sends exactly one id (4 bytes) to GPU 1 (other rank) and vice
  // versa.
  for (const auto& c : counters) {
    EXPECT_EQ(c.send_bytes_remote, 4u);
    EXPECT_EQ(c.recv_bytes_remote, 4u);
    EXPECT_EQ(c.send_dest_ranks, 1);
    EXPECT_EQ(c.bin_vertices, 2u);  // one per destination (incl. loopback)
  }
}

TEST(Exchange, LoopbackOnlySingleGpu) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 1;
  setup.spec.gpus_per_rank = 1;
  setup.options = {};
  std::vector<ExchangeCounters> counters;
  auto received = run_exchange(setup, &counters);
  ASSERT_EQ(received[0].size(), 1u);
  EXPECT_EQ(received[0][0], 0u);  // 0*1000 + 0
  EXPECT_EQ(counters[0].send_bytes_remote, 0u);
}

TEST(Exchange, EmptyBinsStillCompleteCollectively) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 3;
  setup.spec.gpus_per_rank = 2;
  const int p = setup.spec.total_gpus();
  Transport t(setup.spec);
  std::vector<std::thread> threads;
  std::atomic<int> completed{0};
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<LocalId>> bins(static_cast<std::size_t>(p));
      ExchangeCounters c;
      const auto r = exchange(
          t, setup.spec, setup.spec.coord_of(g), bins, 0,
          {.combine = UpdateCombine::kOr, .local_all2all = true}, c);
      EXPECT_TRUE(r.empty());
      completed.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(completed.load(), p);
}

TEST(UpdateExchange, PairsReachOwners) {
  // The (id, value) exchange behind CC labels and PageRank contributions.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const int p = spec.total_gpus();
  Transport t(spec);
  std::vector<std::vector<VertexUpdate>> received(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(static_cast<std::size_t>(p));
      for (int dest = 0; dest < p; ++dest) {
        bins[static_cast<std::size_t>(dest)].push_back(VertexUpdate{
            static_cast<LocalId>(dest),
            static_cast<std::uint64_t>(g) << 32 | 0xabcdu});
      }
      ExchangeCounters c;
      received[static_cast<std::size_t>(g)] =
          exchange(t, spec, spec.coord_of(g), bins, 0, {}, c);
    });
  }
  for (auto& th : threads) th.join();
  for (int g = 0; g < p; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), static_cast<std::size_t>(p));
    std::vector<std::uint64_t> senders;
    for (const VertexUpdate& u : r) {
      EXPECT_EQ(u.vertex, static_cast<LocalId>(g));
      EXPECT_EQ(u.value & 0xffffffffu, 0xabcdu);
      senders.push_back(u.value >> 32);
    }
    std::sort(senders.begin(), senders.end());
    for (int sndr = 0; sndr < p; ++sndr) {
      EXPECT_EQ(senders[static_cast<std::size_t>(sndr)],
                static_cast<std::uint64_t>(sndr));
    }
  }
}

TEST(UpdateExchange, CountersUseTwelveBytesPerUpdate) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  Transport t(spec);
  std::vector<ExchangeCounters> counters(2);
  std::vector<std::thread> threads;
  for (int g = 0; g < 2; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(2);
      bins[static_cast<std::size_t>(1 - g)].assign(10, VertexUpdate{1, 2});
      exchange(t, spec, spec.coord_of(g), bins, 0, {},
               counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& c : counters) {
    EXPECT_EQ(c.send_bytes_remote, 120u);  // 10 updates x 12 bytes
    EXPECT_EQ(c.recv_bytes_remote, 120u);
    EXPECT_EQ(c.send_dest_ranks, 1);
  }
}

TEST(Exchange, UniquifyCountersCountScannedAndRemoved) {
  // Direct path, 2 ranks x 1 GPU: each GPU sends the same id five times to
  // the other GPU.  Uniquify scans all five and removes four; one 4-byte id
  // crosses the wire.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  Transport t(spec);
  std::vector<ExchangeCounters> counters(2);
  std::vector<std::thread> threads;
  for (int g = 0; g < 2; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<LocalId>> bins(2);
      bins[static_cast<std::size_t>(1 - g)].assign(5, LocalId{7});
      exchange(t, spec, spec.coord_of(g), bins, 0,
               {.combine = UpdateCombine::kOr},
               counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& c : counters) {
    EXPECT_EQ(c.bin_vertices, 5u);
    EXPECT_EQ(c.uniquify_vertices, 5u);
    EXPECT_EQ(c.duplicates_removed, 4u);
    EXPECT_EQ(c.send_bytes_remote, 4u);
    EXPECT_EQ(c.recv_bytes_remote, 4u);
    EXPECT_EQ(c.local_bytes, 0u);
  }
}

TEST(UpdateExchange, CountersSplitLocalAndRemoteBytes) {
  // 2 ranks x 2 GPUs: GPU g sends (g + 1) updates to every GPU including
  // itself.  One destination shares g's rank (12 bytes each over NVLink),
  // two are remote; the loopback bin is counted in bin_vertices but moves
  // no bytes.  Default options: no coalescing, no compression.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const int p = spec.total_gpus();
  Transport t(spec);
  std::vector<ExchangeCounters> counters(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(static_cast<std::size_t>(p));
      for (int dest = 0; dest < p; ++dest) {
        bins[static_cast<std::size_t>(dest)].assign(
            static_cast<std::size_t>(g + 1), VertexUpdate{3, 9});
      }
      exchange(t, spec, spec.coord_of(g), bins, 0, {},
               counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  for (int g = 0; g < p; ++g) {
    const auto& c = counters[static_cast<std::size_t>(g)];
    const std::uint64_t per_bin = static_cast<std::uint64_t>(g + 1);
    EXPECT_EQ(c.bin_vertices, 4 * per_bin) << "gpu " << g;
    EXPECT_EQ(c.local_bytes, per_bin * 12) << "gpu " << g;
    EXPECT_EQ(c.send_bytes_remote, 2 * per_bin * 12) << "gpu " << g;
    EXPECT_EQ(c.send_dest_ranks, 2) << "gpu " << g;
    // Remote senders are the two GPUs of the other rank.
    std::uint64_t expected_recv = 0;
    for (int s = 0; s < p; ++s) {
      if (spec.coord_of(s).rank != spec.coord_of(g).rank) {
        expected_recv += static_cast<std::uint64_t>(s + 1) * 12;
      }
    }
    EXPECT_EQ(c.recv_bytes_remote, expected_recv) << "gpu " << g;
    EXPECT_EQ(c.uniquify_vertices, 0u);
    EXPECT_EQ(c.duplicates_removed, 0u);
  }
}

TEST(UpdateExchange, EmptyBinsComplete) {
  sim::ClusterSpec spec;
  spec.num_ranks = 3;
  spec.gpus_per_rank = 1;
  Transport t(spec);
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (int g = 0; g < 3; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(3);
      ExchangeCounters c;
      EXPECT_TRUE(
          exchange(t, spec, spec.coord_of(g), bins, 0, {}, c).empty());
      done.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(done.load(), 3);
}

TEST(Exchange, OddIdValuesSurvivePacking) {
  // The 2-ids-per-word packing must handle odd counts and large id values.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  Transport t(spec);
  std::vector<std::vector<LocalId>> received(2);
  std::vector<std::thread> threads;
  for (int g = 0; g < 2; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<LocalId>> bins(2);
      if (g == 0) {
        bins[1] = {0xffffffffu, 1u, 0x80000000u};  // odd count, extreme values
      }
      ExchangeCounters c;
      received[static_cast<std::size_t>(g)] =
          exchange(t, spec, spec.coord_of(g), bins, 0, {}, c);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(received[1],
            (std::vector<LocalId>{0xffffffffu, 1u, 0x80000000u}));
}

// ---- update coalescing (min/sum-uniquify) and compression ----------------

/// Run one collective update exchange on `spec` where every GPU fills its
/// bins via `fill(gpu, bins)`; returns everyone's received vectors.
std::vector<std::vector<VertexUpdate>> run_update_exchange(
    const sim::ClusterSpec& spec, const ExchangeOptions& options,
    std::vector<ExchangeCounters>* counters_out,
    const std::function<void(int, std::vector<std::vector<VertexUpdate>>&)>&
        fill) {
  const int p = spec.total_gpus();
  Transport t(spec);
  std::vector<std::vector<VertexUpdate>> received(static_cast<std::size_t>(p));
  std::vector<ExchangeCounters> counters(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(static_cast<std::size_t>(p));
      fill(g, bins);
      received[static_cast<std::size_t>(g)] =
          exchange(t, spec, spec.coord_of(g), bins, 0, options,
                   counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  if (counters_out != nullptr) *counters_out = std::move(counters);
  return received;
}

TEST(UpdateExchange, MinCoalesceShrinksBinsAndBytes) {
  // 2 ranks x 1 GPU: each GPU sends five candidates for vertex 7 (values
  // 50..54) plus one for vertex 9.  Min-coalescing scans all six, removes
  // four, and ships two updates (24 bytes) carrying the per-vertex minima.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kMin}, &counters,
      [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        auto& bin = bins[static_cast<std::size_t>(1 - g)];
        for (std::uint64_t i = 0; i < 5; ++i) {
          bin.push_back(VertexUpdate{7, 54 - i});  // min arrives last
        }
        bin.push_back(VertexUpdate{9, 100});
      });
  for (const auto& c : counters) {
    EXPECT_EQ(c.bin_vertices, 6u);        // pre-coalesce candidate count
    EXPECT_EQ(c.uniquify_vertices, 6u);   // all scanned
    EXPECT_EQ(c.uniquify_bytes, 6u * 12); // 12-byte update records
    EXPECT_EQ(c.duplicates_removed, 4u);  // post-coalesce: 2 remain
    EXPECT_EQ(c.send_bytes_remote, 2u * 12);
    EXPECT_EQ(c.recv_bytes_remote, 2u * 12);
    EXPECT_EQ(c.encode_bytes, 0u);  // raw codec
  }
  for (int g = 0; g < 2; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].vertex, 7u);
    EXPECT_EQ(r[0].value, 50u);  // the minimum survived
    EXPECT_EQ(r[1].vertex, 9u);
    EXPECT_EQ(r[1].value, 100u);
  }
}

TEST(UpdateExchange, SumCoalesceCombinesDoubleContributions) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kSumDouble}, &counters,
      [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        auto& bin = bins[static_cast<std::size_t>(1 - g)];
        for (int i = 0; i < 4; ++i) {
          bin.push_back(VertexUpdate{3, std::bit_cast<std::uint64_t>(0.25)});
        }
      });
  for (const auto& c : counters) {
    EXPECT_EQ(c.duplicates_removed, 3u);
    EXPECT_EQ(c.send_bytes_remote, 12u);
  }
  for (int g = 0; g < 2; ++g) {
    ASSERT_EQ(received[static_cast<std::size_t>(g)].size(), 1u);
    EXPECT_DOUBLE_EQ(
        std::bit_cast<double>(received[static_cast<std::size_t>(g)][0].value),
        1.0);
  }
}

TEST(UpdateExchange, CoalesceSkipsTheLoopbackBin) {
  // The loopback bin never hits a wire, so (like the id exchange's U
  // option) its duplicates are left to the receiver's own fold.
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kMin}, &counters,
      [](int, std::vector<std::vector<VertexUpdate>>& bins) {
        bins[0].assign(3, VertexUpdate{1, 5});
      });
  EXPECT_EQ(received[0].size(), 3u);
  EXPECT_EQ(counters[0].uniquify_vertices, 0u);
  EXPECT_EQ(counters[0].duplicates_removed, 0u);
}

TEST(UpdateExchange, CompressionRoundTripsAndCountsWireBytes) {
  // Small sorted ids and small values varint-encode to ~2 bytes per update
  // vs 12 uncompressed; the byte counters must report the wire size, and
  // encode_bytes the raw payload run through the encoder.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kMin, WireCodec::kVarint}, &counters,
      [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        auto& bin = bins[static_cast<std::size_t>(1 - g)];
        for (std::uint64_t i = 0; i < 10; ++i) {
          bin.push_back(VertexUpdate{static_cast<LocalId>(i * 3), i + 1});
        }
      });
  for (const auto& c : counters) {
    EXPECT_EQ(c.encode_bytes, 10u * 12);
    EXPECT_GT(c.send_bytes_remote, 0u);
    EXPECT_LT(c.send_bytes_remote, 10u * 12);  // strictly fewer wire bytes
    EXPECT_EQ(c.recv_bytes_remote, c.send_bytes_remote);
  }
  for (int g = 0; g < 2; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(r[i].vertex, i * 3);
      EXPECT_EQ(r[i].value, i + 1);
    }
  }
}

TEST(UpdateExchange, CompressionSurvivesUnsortedAndExtremeValues) {
  // Without coalescing the ids arrive unsorted, so deltas go negative
  // (zigzag path), and 64-bit extremes must round-trip bit for bit.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const std::vector<VertexUpdate> payload = {
      {0xffffffffu, 0xffffffffffffffffull},
      {0u, 0u},
      {0x80000000u, std::bit_cast<std::uint64_t>(-0.125)},
      {7u, 1u},
  };
  auto received = run_update_exchange(
      spec, {UpdateCombine::kNone, WireCodec::kVarint}, nullptr,
      [&](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        bins[static_cast<std::size_t>(1 - g)] = payload;
      });
  for (int g = 0; g < 2; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), payload.size());
    for (std::size_t i = 0; i < payload.size(); ++i) {
      EXPECT_EQ(r[i].vertex, payload[i].vertex) << i;
      EXPECT_EQ(r[i].value, payload[i].value) << i;
    }
  }
}

TEST(UpdateExchange, ValueBiasRoundTripsAndShrinksWireBytes) {
  // Bucket-tagged payload: values clustered just above a large floor (the
  // open bucket's base distance) encode as multi-byte varints raw but
  // one-byte varints once biased; the result must be identical either way,
  // including a bias *larger* than some value (mod-2^64 round trip).
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const std::uint64_t base = 1ULL << 40;
  const auto fill = [&](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    for (std::uint64_t i = 0; i < 16; ++i) {
      bin.push_back(VertexUpdate{static_cast<LocalId>(i), base + i});
    }
    bin.push_back(VertexUpdate{100u, base - 3});  // below the floor
  };
  std::vector<ExchangeCounters> raw_counters, biased_counters;
  auto raw = run_update_exchange(
      spec, {UpdateCombine::kMin, WireCodec::kVarint}, &raw_counters, fill);
  auto biased =
      run_update_exchange(spec, {UpdateCombine::kMin, WireCodec::kVarint, base},
                          &biased_counters, fill);
  for (int g = 0; g < 2; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    ASSERT_EQ(biased[gi].size(), raw[gi].size());
    for (std::size_t i = 0; i < raw[gi].size(); ++i) {
      EXPECT_EQ(biased[gi][i].vertex, raw[gi][i].vertex) << i;
      EXPECT_EQ(biased[gi][i].value, raw[gi][i].value) << i;
    }
  }
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_LT(biased_counters[g].send_bytes_remote,
              raw_counters[g].send_bytes_remote);
  }
}

TEST(UpdateExchange, OrCoalesceMergesLaneWords) {
  // The batched-BFS combine: candidates for one destination vertex OR their
  // lane words into a single update.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kOr}, &counters,
      [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        auto& bin = bins[static_cast<std::size_t>(1 - g)];
        bin.push_back(VertexUpdate{5, 0b0001});
        bin.push_back(VertexUpdate{5, 0b1000});
        bin.push_back(VertexUpdate{9, 0b0110});
      });
  for (const auto& c : counters) {
    EXPECT_EQ(c.duplicates_removed, 1u);
    EXPECT_EQ(c.send_bytes_remote, 2u * 12);
  }
  for (int g = 0; g < 2; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].vertex, 5u);
    EXPECT_EQ(r[0].value, 0b1001u);
    EXPECT_EQ(r[1].vertex, 9u);
    EXPECT_EQ(r[1].value, 0b0110u);
  }
}

TEST(UpdateExchange, ValueBytesScalesTheWireCounters) {
  // Lane-word updates are narrower than the historic 12-byte record: the
  // counters must charge 4 + value_bytes per update (and the bare 4-byte
  // id at value_bytes = 0, the W = 1 batch where the lane is implicit).
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  for (const int value_bytes : {0, 1, 4, 8}) {
    std::vector<ExchangeCounters> counters;
    ExchangeOptions options;
    options.combine = UpdateCombine::kOr;
    options.value_bytes = value_bytes;
    auto received = run_update_exchange(
        spec, options, &counters,
        [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
          auto& bin = bins[static_cast<std::size_t>(1 - g)];
          for (LocalId i = 0; i < 10; ++i) bin.push_back(VertexUpdate{i, 1});
        });
    const std::uint64_t expected =
        10u * (4u + static_cast<std::uint64_t>(value_bytes));
    for (const auto& c : counters) {
      EXPECT_EQ(c.send_bytes_remote, expected) << "width " << value_bytes;
      EXPECT_EQ(c.recv_bytes_remote, expected) << "width " << value_bytes;
      EXPECT_EQ(c.uniquify_bytes, expected) << "width " << value_bytes;
    }
    for (int g = 0; g < 2; ++g) {
      EXPECT_EQ(received[static_cast<std::size_t>(g)].size(), 10u);
    }
  }
}

TEST(UpdateExchange, AdaptiveCompressionPicksTheSmallerPathPerBin) {
  // Two bins from each GPU: one with tiny sorted ids and values (the
  // encode wins), one with scattered ids and full-range values (raw wins).
  // Both must round-trip bit for bit and the counters must record one
  // choice each way; the shipped bytes equal the per-bin minimum.
  sim::ClusterSpec spec;
  spec.num_ranks = 3;
  spec.gpus_per_rank = 1;
  ExchangeOptions options;
  options.codec = WireCodec::kAdaptive;
  const std::vector<VertexUpdate> wins = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}};
  std::vector<VertexUpdate> loses;
  for (int i = 0; i < 6; ++i) {
    // Alternating extremes: 5-byte zigzag deltas plus 10-byte values.
    loses.push_back(VertexUpdate{i % 2 == 0 ? 0xffffffffu : 0u,
                                 0x8000000000000000ull +
                                     static_cast<std::uint64_t>(i)});
  }
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, options, &counters,
      [&](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        bins[static_cast<std::size_t>((g + 1) % 3)] = wins;
        bins[static_cast<std::size_t>((g + 2) % 3)] = loses;
      });
  const std::uint64_t raw_bytes = 6u * 12;
  for (const auto& c : counters) {
    EXPECT_EQ(c.bins_compressed, 1u);
    EXPECT_EQ(c.bins_raw, 1u);
    // Encoded small bin is ~2 bytes per update; the raw bin ships 72.
    EXPECT_LT(c.send_bytes_remote, 2 * raw_bytes);
    EXPECT_GE(c.send_bytes_remote, raw_bytes);
    EXPECT_EQ(c.encode_bytes, 2 * raw_bytes);  // both bins were trialed
  }
  for (int g = 0; g < 3; ++g) {
    auto r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), wins.size() + loses.size());
    std::sort(r.begin(), r.end(), [](const auto& a, const auto& b) {
      return a.value < b.value;
    });
    for (std::size_t i = 0; i < wins.size(); ++i) {
      EXPECT_EQ(r[i].vertex, wins[i].vertex);
      EXPECT_EQ(r[i].value, wins[i].value);
    }
    for (std::size_t i = 0; i < loses.size(); ++i) {
      EXPECT_EQ(r[wins.size() + i].value,
                0x8000000000000000ull + static_cast<std::uint64_t>(i));
    }
  }
}

TEST(UpdateExchange, AdaptiveNeverExceedsEitherFixedPolicy) {
  // Same payload through raw / varint / adaptive: adaptive's wire volume
  // is the per-bin minimum, so it can beat both and must never lose.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const auto fill = [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    for (std::uint64_t i = 0; i < 8; ++i) {
      bin.push_back(VertexUpdate{static_cast<LocalId>(i * 2), i});
    }
  };
  std::uint64_t bytes[3];
  const WireCodec codecs[3] = {WireCodec::kRaw, WireCodec::kVarint,
                               WireCodec::kAdaptive};
  for (int mode = 0; mode < 3; ++mode) {
    std::vector<ExchangeCounters> counters;
    run_update_exchange(spec, {.codec = codecs[mode]}, &counters, fill);
    bytes[mode] = counters[0].send_bytes_remote;
  }
  EXPECT_LE(bytes[2], bytes[0]);
  EXPECT_LE(bytes[2], bytes[1]);
}

TEST(UpdateExchange, GorillaRoundTripsAndBeatsVarintOnDoubles) {
  // Successive PageRank-style shares: same sign/exponent, slowly moving
  // mantissa.  The XOR stream truncates the shared bits; varint sees
  // full-width bit-cast integers and inflates past raw.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const auto fill = [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    for (std::uint64_t i = 0; i < 32; ++i) {
      const double share = 1.0 / 64.0 + static_cast<double>(i) * 1e-6;
      bin.push_back(
          VertexUpdate{static_cast<LocalId>(i), std::bit_cast<std::uint64_t>(share)});
    }
  };
  std::uint64_t bytes[3];
  std::vector<std::vector<VertexUpdate>> received[3];
  const WireCodec codecs[3] = {WireCodec::kRaw, WireCodec::kVarint,
                               WireCodec::kGorilla};
  for (int mode = 0; mode < 3; ++mode) {
    std::vector<ExchangeCounters> counters;
    received[mode] =
        run_update_exchange(spec, {.codec = codecs[mode]}, &counters, fill);
    bytes[mode] = counters[0].send_bytes_remote;
  }
  // Bit-exact across raw / varint / gorilla.
  for (int mode = 1; mode < 3; ++mode) {
    for (int g = 0; g < 2; ++g) {
      auto a = received[0][static_cast<std::size_t>(g)];
      auto b = received[mode][static_cast<std::size_t>(g)];
      const auto by_id = [](const auto& x, const auto& y) {
        return x.vertex < y.vertex;
      };
      std::sort(a.begin(), a.end(), by_id);
      std::sort(b.begin(), b.end(), by_id);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].vertex, b[i].vertex) << "mode " << mode;
        ASSERT_EQ(a[i].value, b[i].value) << "mode " << mode;
      }
    }
  }
  EXPECT_LT(bytes[2], bytes[0]);  // gorilla beats raw on float payloads
  EXPECT_LT(bytes[2], bytes[1]);  // and varint loses to both
}

TEST(UpdateExchange, GorillaAdaptiveNeverExceedsRawOnHostilePayload) {
  // Uncorrelated full-entropy values AND ids scattered over the full
  // 32-bit range: the XOR windows never truncate and the id deltas need
  // 4-5 varint bytes, so the Gorilla stream pays for its control bits; the
  // per-bin trial-encode must fall back to raw.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const auto fill = [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < 32; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      bin.push_back(VertexUpdate{
          static_cast<LocalId>(i * 2654435761u), x});
    }
  };
  std::uint64_t raw = 0, gorilla = 0;
  for (const WireCodec codec : {WireCodec::kRaw, WireCodec::kGorilla}) {
    std::vector<ExchangeCounters> counters;
    auto received =
        run_update_exchange(spec, {.codec = codec}, &counters, fill);
    (codec == WireCodec::kRaw ? raw : gorilla) = counters[0].send_bytes_remote;
    for (int g = 0; g < 2; ++g) {
      EXPECT_EQ(received[static_cast<std::size_t>(g)].size(), 32u);
    }
  }
  EXPECT_LE(gorilla, raw);  // the per-bin guarantee
}

TEST(UpdateExchange, GorillaRepeatAndWindowReuseCompressHard) {
  // All-identical values exercise the '0' repeat control path: two bits
  // per value after the first.  The wire must come in far under raw.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const auto fill = [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    for (std::uint64_t i = 0; i < 64; ++i) {
      bin.push_back(VertexUpdate{static_cast<LocalId>(i),
                                 std::bit_cast<std::uint64_t>(0.25)});
    }
  };
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(spec, {.codec = WireCodec::kGorilla},
                                      &counters, fill);
  EXPECT_LT(counters[0].send_bytes_remote, 64u * 12 / 4);
  for (int g = 0; g < 2; ++g) {
    ASSERT_EQ(received[static_cast<std::size_t>(g)].size(), 64u);
    for (const auto& u : received[static_cast<std::size_t>(g)]) {
      EXPECT_EQ(u.value, std::bit_cast<std::uint64_t>(0.25));
    }
  }
}

// ---- end-to-end: the exchange options preserve algorithm results ---------

TEST(UpdateExchange, SsspBitExactWithUniquifyOnAndOff) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 55});
  const graph::HostCsr host = graph::build_host_csr(g);
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const auto expected = baseline::serial_sssp(host, 3);
  for (const bool uniquify : {false, true}) {
    for (const WireCodec codec : {WireCodec::kRaw, WireCodec::kVarint,
                                  WireCodec::kAdaptive, WireCodec::kGorilla}) {
      core::SsspOptions options;
      options.run.uniquify = uniquify;
      options.run.codec = codec;
      core::DistributedSssp sssp(dg, cluster, options);
      const core::SsspResult r = sssp.run(3);
      ASSERT_EQ(r.distances.size(), expected.size());
      for (VertexId v = 0; v < expected.size(); ++v) {
        ASSERT_EQ(r.distances[v], expected[v])
            << "vertex " << v << " uniquify " << uniquify << " codec "
            << static_cast<int>(codec);
      }
    }
  }
}

TEST(UpdateExchange, CcBitExactAndFewerBytesWithUniquify) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 56});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const auto expected = baseline::serial_components(graph::build_host_csr(g));

  std::uint64_t bytes_on = 0, bytes_off = 0;
  for (const bool uniquify : {false, true}) {
    core::CcOptions options;
    options.run.uniquify = uniquify;
    const core::CcResult r = core::ConnectedComponents(dg, cluster, options).run();
    ASSERT_EQ(r.labels.size(), expected.size());
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(r.labels[v], expected[v]) << "vertex " << v << " uniquify "
                                          << uniquify;
    }
    (uniquify ? bytes_on : bytes_off) = r.update_bytes_remote;
  }
  // RMAT dense rounds produce duplicate label candidates per destination;
  // coalescing must strictly shrink the wire volume.
  EXPECT_LT(bytes_on, bytes_off);
}

TEST(UpdateExchange, SsspCompressedBiasBitExactAndPinned) {
  // The compressed SSSP wire is biased by one min-allreduce of active
  // distances per round (delta-stepping's bucket-base bias, generalized to
  // flat SSSP): distances must stay bit-exact on a weighted RMAT run whose
  // tentative distances sit far above zero in later rounds.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 57});
  const graph::HostCsr host = graph::build_host_csr(g);
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);

  // Wide hashed weights push tentative distances into multi-byte varint
  // territory, where subtracting the per-round floor pays off.
  constexpr std::uint32_t kWideWeights = 1u << 20;
  const auto expected_wide = baseline::serial_sssp(host, 3, kWideWeights);

  core::SsspOptions options;
  options.max_weight = kWideWeights;
  options.run.codec = WireCodec::kVarint;
  core::DistributedSssp sssp(dg, cluster, options);
  const core::SsspResult r = sssp.run(3);
  ASSERT_EQ(r.distances.size(), expected_wide.size());
  for (VertexId v = 0; v < expected_wide.size(); ++v) {
    ASSERT_EQ(r.distances[v], expected_wide[v]) << "vertex " << v;
  }
  // Unbiased, the same run shipped 1567 bytes.
  EXPECT_EQ(r.update_bytes_remote, 1566u);
}

// ---- malformed-payload corpus ---------------------------------------------
// The wire decoders are public exactly so hostile buffers can be thrown at
// them directly: every entry here must surface as a typed DecodeError, never
// an out-of-bounds read, a hang, or a silently truncated result.

TEST(WireCorpus, FrameRoundTripsAndRejectsTampering) {
  const std::vector<std::uint64_t> payload = {10, 20, 30};
  std::vector<std::uint64_t> framed = frame_payload(payload);
  ASSERT_EQ(framed.size(), payload.size() + 2);
  const auto view = verify_frame(framed);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), payload.begin()));

  for (std::size_t w = 0; w < framed.size(); ++w) {
    for (const std::uint64_t bit : {0, 17, 63}) {
      auto bad = framed;
      bad[w] ^= 1ULL << bit;
      EXPECT_THROW(verify_frame(bad), DecodeError) << "word " << w;
    }
  }
}

TEST(WireCorpus, FrameHeaderEdgeCases) {
  // Too short for the 2-word header.
  EXPECT_THROW(verify_frame({}), DecodeError);
  EXPECT_THROW(verify_frame(std::vector<std::uint64_t>{kFrameMagic << 32}),
               DecodeError);
  // Declared payload length disagrees with the buffer.
  std::vector<std::uint64_t> framed = frame_payload({1, 2});
  framed.push_back(99);
  EXPECT_THROW(verify_frame(framed), DecodeError);
  framed.resize(framed.size() - 2);
  EXPECT_THROW(verify_frame(framed), DecodeError);
  // An empty payload is a legal frame.
  const std::vector<std::uint64_t> empty = frame_payload({});
  EXPECT_TRUE(verify_frame(empty).empty());
}

TEST(WireCorpus, IdSegmentHostileBuffers) {
  std::vector<LocalId> out;
  std::size_t pos = 0;
  // Missing count header.
  EXPECT_THROW(decode_ids({}, pos, out), DecodeError);
  // Count larger than the remaining words.
  pos = 0;
  EXPECT_THROW(decode_ids(std::vector<std::uint64_t>{5, 1}, pos, out),
               DecodeError);
  // Count near 2^64: the words-needed arithmetic must not wrap.
  pos = 0;
  EXPECT_THROW(
      decode_ids(std::vector<std::uint64_t>{~0ULL, 1, 2, 3}, pos, out),
      DecodeError);
  // An odd count leaves the upper half of the last word as padding, which
  // must be zero.
  pos = 0;
  EXPECT_THROW(
      decode_ids(std::vector<std::uint64_t>{1, 0xdeadbeef00000005ULL}, pos,
                 out),
      DecodeError);
  // A valid segment still decodes and advances pos.
  pos = 0;
  out.clear();
  decode_ids(std::vector<std::uint64_t>{3, (2ULL << 32) | 1, 3}, pos, out);
  EXPECT_EQ(out, (std::vector<LocalId>{1, 2, 3}));
  EXPECT_EQ(pos, 3u);
}

TEST(WireCorpus, RawUpdateHostileBuffers) {
  std::vector<VertexUpdate> out;
  // Missing count header.
  EXPECT_THROW(decode_updates_raw({}, out), DecodeError);
  // Truncated body, including the count-overflow probe.
  EXPECT_THROW(decode_updates_raw(std::vector<std::uint64_t>{2, 1, 7}, out),
               DecodeError);
  EXPECT_THROW(decode_updates_raw(std::vector<std::uint64_t>{~0ULL, 1}, out),
               DecodeError);
  // Over-long body (trailing garbage a length-prefixed format must reject).
  EXPECT_THROW(
      decode_updates_raw(std::vector<std::uint64_t>{1, 1, 7, 8}, out),
      DecodeError);
  // A vertex id that overflows the 32-bit local-id space.
  EXPECT_THROW(
      decode_updates_raw(std::vector<std::uint64_t>{1, 1ULL << 33, 7}, out),
      DecodeError);
  out.clear();
  decode_updates_raw(std::vector<std::uint64_t>{1, 4, 7}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex, 4u);
  EXPECT_EQ(out[0].value, 7u);
}

TEST(WireCorpus, CompressedUpdateHostileBuffers) {
  std::vector<VertexUpdate> out;
  // Missing / short header.
  EXPECT_THROW(decode_updates_compressed({}, 0, out), DecodeError);
  EXPECT_THROW(
      decode_updates_compressed(std::vector<std::uint64_t>{1}, 0, out),
      DecodeError);
  // Declared byte count disagreeing with the body both ways.
  EXPECT_THROW(
      decode_updates_compressed(std::vector<std::uint64_t>{1, 9, 0}, 0, out),
      DecodeError);
  EXPECT_THROW(
      decode_updates_compressed(std::vector<std::uint64_t>{1, 2, 0, 0}, 0, out),
      DecodeError);
  // Count impossible for the payload size (2 bytes minimum per update).
  EXPECT_THROW(
      decode_updates_compressed(std::vector<std::uint64_t>{4, 4, 0}, 0, out),
      DecodeError);
  // A varint whose continuation bits run off the end of the body.
  EXPECT_THROW(decode_updates_compressed(
                   std::vector<std::uint64_t>{1, 2, 0x8080}, 0, out),
               DecodeError);
  // A varint wider than 64 bits (ten 0x80 continuation bytes, then 0x01).
  EXPECT_THROW(decode_updates_compressed(
                   std::vector<std::uint64_t>{1, 11, 0x8080808080808080ULL,
                                              0x018080},
                   0, out),
               DecodeError);
  // Declared bytes left over after `count` updates.
  EXPECT_THROW(decode_updates_compressed(
                   std::vector<std::uint64_t>{1, 4, 0x00000506}, 0, out),
               DecodeError);
  // Hand-packed valid payload: updates (3, 5) and (7, 2) -- zigzag deltas
  // 6 and 8, values 5 and 2, four bytes packed LE into one word.
  out.clear();
  decode_updates_compressed(std::vector<std::uint64_t>{2, 4, 0x02080506}, 0,
                            out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vertex, 3u);
  EXPECT_EQ(out[0].value, 5u);
  EXPECT_EQ(out[1].vertex, 7u);
  EXPECT_EQ(out[1].value, 2u);
  // The same payload with a value bias added back on decode.
  out.clear();
  decode_updates_compressed(std::vector<std::uint64_t>{2, 4, 0x02080506}, 100,
                            out);
  EXPECT_EQ(out[0].value, 105u);
  EXPECT_EQ(out[1].value, 102u);
}

}  // namespace
}  // namespace dsbfs::comm
