// Microbenchmarks of the local-computation building blocks: visit kernels
// (forward vs backward) at one lane (single-source BFS) and 64 lanes,
// bitset operations, and CSR traversal.  These back
// the DeviceModel calibration constants (ablation: merge vs dynamic load
// balancing classes differ on real GPUs; here they quantify the host
// substrate's functional cost).
#include <benchmark/benchmark.h>

#include <optional>

#include "core/frontier.hpp"
#include "core/previsit.hpp"
#include "core/visit.hpp"
#include "graph/builder.hpp"
#include "graph/rmat.hpp"
#include "util/bitset.hpp"

namespace {

using namespace dsbfs;

struct KernelFixture {
  KernelFixture() {
    spec.num_ranks = 1;
    spec.gpus_per_rank = 1;
    graph_data = graph::rmat_graph500({.scale = 16, .seed = 5});
    dg = graph::build_distributed(graph_data, spec, 32);
  }
  sim::ClusterSpec spec;
  graph::EdgeList graph_data;
  graph::DistributedGraph dg;
};

KernelFixture& fixture() {
  static KernelFixture f;
  return f;
}

void BM_BitsetSet(benchmark::State& state) {
  util::LaneBitset bits(1 << 20);
  std::size_t i = 0;
  for (auto _ : state) {
    bits.set(i);
    i = (i + 4099) & ((1 << 20) - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitsetSet);

void BM_BitsetOrWith(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  util::LaneBitset a(bits), b(bits);
  for (std::size_t i = 0; i < bits; i += 7) b.set(i);
  for (auto _ : state) {
    a.or_with(b);
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_BitsetOrWith)->Range(1 << 10, 1 << 22);

void BM_BitsetCount(benchmark::State& state) {
  util::LaneBitset a(1 << 20);
  for (std::size_t i = 0; i < (1 << 20); i += 3) a.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.count());
  }
}
BENCHMARK(BM_BitsetCount);

/// A fresh lane state on the fixture's single GPU, every lane live.  The
/// benchmarks build it with timing paused and keep it until the next
/// iteration's paused setup replaces it, so neither its construction nor
/// its destruction is timed.
template <int W>
core::LaneState& fresh_state(std::optional<core::LaneState>& slot) {
  slot.emplace(fixture().dg.local(0), 1, W, /*record_parents=*/false);
  slot->batch_mask = slot->seen_normal.lane_mask();
  return *slot;
}

template <int W>
void BM_DelegatePrevisit(benchmark::State& state) {
  auto& f = fixture();
  std::optional<core::LaneState> slot;
  for (auto _ : state) {
    state.PauseTiming();
    core::LaneState& s = fresh_state<W>(slot);
    for (LocalId t = 0; t < f.dg.num_delegates(); t += 4) {
      s.delegate_new.or_lanes(t, s.batch_mask);
    }
    state.ResumeTiming();
    core::delegate_previsit_lanes(s);
    benchmark::DoNotOptimize(s.delegate_queue);
  }
}
BENCHMARK_TEMPLATE(BM_DelegatePrevisit, 1);
BENCHMARK_TEMPLATE(BM_DelegatePrevisit, 64);

template <int W>
void BM_VisitDdForward(benchmark::State& state) {
  auto& f = fixture();
  std::optional<core::LaneState> slot;
  for (auto _ : state) {
    state.PauseTiming();
    core::LaneState& s = fresh_state<W>(slot);
    for (LocalId t = 0; t < f.dg.num_delegates(); t += 8) {
      s.delegate_queue.push_back(t);
      s.delegate_new.or_lanes(t, s.batch_mask);
    }
    state.ResumeTiming();
    core::visit_dd_lanes<W>(s);
    benchmark::DoNotOptimize(s.delegate_out_dd);
  }
  state.SetLabel("merge-class kernel (dd)");
}
BENCHMARK_TEMPLATE(BM_VisitDdForward, 1);
BENCHMARK_TEMPLATE(BM_VisitDdForward, 64);

template <int W>
void BM_VisitDdBackward(benchmark::State& state) {
  auto& f = fixture();
  std::optional<core::LaneState> slot;
  for (auto _ : state) {
    state.PauseTiming();
    core::LaneState& s = fresh_state<W>(slot);
    // Mark a quarter of delegates visited; pull the rest.  The pull only
    // launches behind a non-empty delegate queue.
    for (LocalId t = 0; t < f.dg.num_delegates(); t += 4) {
      s.delegate_visited.or_lanes(t, s.batch_mask);
    }
    s.delegate_queue.push_back(0);
    s.dir_dd.update(1e18, 1.0, true);  // force backward
    state.ResumeTiming();
    core::visit_dd_lanes<W>(s);
    benchmark::DoNotOptimize(s.delegate_out_dd);
  }
  state.SetLabel("backward pull with early exit");
}
BENCHMARK_TEMPLATE(BM_VisitDdBackward, 1);
BENCHMARK_TEMPLATE(BM_VisitDdBackward, 64);

template <int W>
void BM_VisitNnForward(benchmark::State& state) {
  auto& f = fixture();
  const std::uint64_t n_local = f.dg.local(0).num_local_normals();
  std::optional<core::LaneState> slot;
  for (auto _ : state) {
    state.PauseTiming();
    core::LaneState& s = fresh_state<W>(slot);
    for (std::uint64_t v = 0; v < n_local; v += 16) {
      s.frontier.push_back(static_cast<LocalId>(v));
      // The one-lane visits know the lane; wider ones read the bitmap.
      if (W > 1) s.frontier_normal.or_lanes(v, s.batch_mask);
    }
    state.ResumeTiming();
    core::visit_nn_lanes<W>(s);
    benchmark::DoNotOptimize(s.bins);
    benchmark::DoNotOptimize(s.id_bins);
  }
  state.SetLabel("dynamic-class kernel (nn) + binning");
}
BENCHMARK_TEMPLATE(BM_VisitNnForward, 1);
BENCHMARK_TEMPLATE(BM_VisitNnForward, 64);

void BM_CsrRowScan(benchmark::State& state) {
  auto& f = fixture();
  const auto& dd = f.dg.local(0).dd();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < dd.num_rows(); ++r) {
      for (const LocalId c : dd.row(r)) sum += c;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dd.num_edges()));
}
BENCHMARK(BM_CsrRowScan);

}  // namespace
