// Microbenchmarks of the local-computation building blocks: visit kernels
// (forward vs backward), bitset operations, and CSR traversal.  These back
// the DeviceModel calibration constants (ablation: merge vs dynamic load
// balancing classes differ on real GPUs; here they quantify the host
// substrate's functional cost).
#include <benchmark/benchmark.h>

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
  util::AtomicBitset bits(1 << 20);
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
  util::AtomicBitset a(bits), b(bits);
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
  util::AtomicBitset a(1 << 20);
  for (std::size_t i = 0; i < (1 << 20); i += 3) a.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.count());
  }
}
BENCHMARK(BM_BitsetCount);

void BM_DelegatePrevisit(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    state.PauseTiming();
    core::GpuState s(f.dg.local(0), 1, /*record_parents=*/false);
    for (LocalId t = 0; t < f.dg.num_delegates(); t += 4) {
      s.delegate_new.set_unsynchronized(t);
    }
    state.ResumeTiming();
    core::delegate_previsit(s, {});
    benchmark::DoNotOptimize(s.delegate_queue);
  }
}
BENCHMARK(BM_DelegatePrevisit);

void BM_VisitDdForward(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    state.PauseTiming();
    core::GpuState s(f.dg.local(0), 1, /*record_parents=*/false);
    for (LocalId t = 0; t < f.dg.num_delegates(); t += 8) {
      s.delegate_queue.push_back(t);
    }
    state.ResumeTiming();
    core::visit_dd(s);
    benchmark::DoNotOptimize(s.delegate_out_dd);
  }
  state.SetLabel("merge-class kernel (dd)");
}
BENCHMARK(BM_VisitDdForward);

void BM_VisitDdBackward(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    state.PauseTiming();
    core::GpuState s(f.dg.local(0), 1, /*record_parents=*/false);
    // Mark a quarter of delegates visited; pull the rest.
    for (LocalId t = 0; t < f.dg.num_delegates(); t += 4) {
      s.delegate_visited.set_unsynchronized(t);
    }
    s.dir_dd.update(1e18, 1.0, true);  // force backward
    state.ResumeTiming();
    core::visit_dd(s);
    benchmark::DoNotOptimize(s.delegate_out_dd);
  }
  state.SetLabel("backward pull with early exit");
}
BENCHMARK(BM_VisitDdBackward);

void BM_VisitNnForward(benchmark::State& state) {
  auto& f = fixture();
  const std::uint64_t n_local = f.dg.local(0).num_local_normals();
  for (auto _ : state) {
    state.PauseTiming();
    core::GpuState s(f.dg.local(0), 1, /*record_parents=*/false);
    for (std::uint64_t v = 0; v < n_local; v += 16) {
      s.frontier.push_back(static_cast<LocalId>(v));
    }
    state.ResumeTiming();
    core::visit_nn(s, f.spec);
    benchmark::DoNotOptimize(s.bins);
  }
  state.SetLabel("dynamic-class kernel (nn) + binning");
}
BENCHMARK(BM_VisitNnForward);

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
