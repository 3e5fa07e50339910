// Microbenchmarks of the communication substrate: transport point-to-point,
// tree collectives, the two-phase delegate-mask OR reduce and the normal
// exchange.
#include <benchmark/benchmark.h>

#include <thread>

#include "comm/collectives.hpp"
#include "comm/exchange.hpp"
#include "comm/mask_reduce.hpp"
#include "comm/transport.hpp"
#include "util/bitset.hpp"

namespace {

using namespace dsbfs;

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

void BM_TransportPingPong(benchmark::State& state) {
  comm::Transport t(spec_of(2, 1));
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  std::thread echo([&t, words, &state] {
    for (std::int64_t i = 0; i < state.max_iterations; ++i) {
      auto m = t.recv(1, 0, comm::kTagUser);
      t.send(1, 0, comm::kTagUser + 1, std::move(m));
    }
  });
  for (auto _ : state) {
    t.send(0, 1, comm::kTagUser, std::vector<std::uint64_t>(words, 3));
    benchmark::DoNotOptimize(t.recv(0, 1, comm::kTagUser + 1));
  }
  echo.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words) * 16);
}
BENCHMARK(BM_TransportPingPong)->Range(8, 1 << 18);

void BM_AllreduceSum(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  comm::Transport t(spec_of(n, 1));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (int i = 1; i < n; ++i) {
      threads.emplace_back([&t, &everyone, i] {
        comm::allreduce_sum(t, everyone, i, 1, comm::kTagUser);
      });
    }
    benchmark::DoNotOptimize(
        comm::allreduce_sum(t, everyone, 0, 1, comm::kTagUser));
    for (auto& th : threads) th.join();
  }
}
BENCHMARK(BM_AllreduceSum)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_MaskReduce(benchmark::State& state) {
  const auto spec = spec_of(4, 2);
  comm::Transport t(spec);
  comm::ValueReducer reducer(t, spec);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  int iteration = 0;
  for (auto _ : state) {
    std::vector<util::LaneBitset> masks(8);
    for (int g = 0; g < 8; ++g) {
      masks[static_cast<std::size_t>(g)].resize(bits);
      masks[static_cast<std::size_t>(g)].set(static_cast<std::size_t>(g * 5) %
                                             bits);
    }
    std::vector<std::thread> threads;
    for (int g = 1; g < 8; ++g) {
      threads.emplace_back([&, g] {
        reducer.reduce(spec.coord_of(g),
                       masks[static_cast<std::size_t>(g)].words(),
                       comm::ValueReducer::Op::kOr, iteration);
      });
    }
    reducer.reduce(spec.coord_of(0), masks[0].words(),
                   comm::ValueReducer::Op::kOr, iteration);
    for (auto& th : threads) th.join();
    ++iteration;
    benchmark::DoNotOptimize(masks[0]);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8) * 8);
}
BENCHMARK(BM_MaskReduce)->Range(1 << 10, 1 << 20);

void BM_IdExchange(benchmark::State& state) {
  const auto spec = spec_of(2, 2);
  comm::Transport t(spec);
  const std::size_t per_bin = static_cast<std::size_t>(state.range(0));
  const bool use_l = state.range(1) != 0;
  int iteration = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (int g = 0; g < 4; ++g) {
      threads.emplace_back([&, g] {
        std::vector<std::vector<LocalId>> bins(4);
        for (auto& bin : bins) {
          bin.assign(per_bin, static_cast<LocalId>(g));
        }
        comm::ExchangeCounters counters;
        benchmark::DoNotOptimize(comm::exchange(
            t, spec, spec.coord_of(g), bins, iteration,
            {.combine = use_l ? comm::UpdateCombine::kOr
                              : comm::UpdateCombine::kNone,
             .local_all2all = use_l},
            counters));
      });
    }
    for (auto& th : threads) th.join();
    ++iteration;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(per_bin) * 16);
  state.SetLabel(use_l ? "local-all2all + uniquify" : "direct");
}
BENCHMARK(BM_IdExchange)
    ->Args({1 << 10, 0})
    ->Args({1 << 10, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

}  // namespace
