#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>

namespace dsbfs::util {

namespace {
std::atomic<std::size_t> g_worker_override{0};

std::size_t hardware_workers() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 4 : hc;
}
}  // namespace

std::size_t parallel_worker_count() noexcept {
  const std::size_t o = g_worker_override.load(std::memory_order_relaxed);
  return o != 0 ? o : hardware_workers();
}

void set_parallel_worker_count(std::size_t n) noexcept {
  g_worker_override.store(n, std::memory_order_relaxed);
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = std::min(parallel_worker_count(), n);
  // Serial fallback: tiny ranges are not worth thread spawn overhead.
  constexpr std::size_t kSerialCutoff = 4096;
  if (workers <= 1 || n < kSerialCutoff) {
    fn(begin, end);
    return;
  }
  const std::size_t chunk = (n + workers - 1) / workers;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = begin + w * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    threads.emplace_back([&fn, lo, hi] { fn(lo, hi); });
  }
  for (auto& t : threads) t.join();
}

void parallel_tasks(std::size_t n, const std::function<void(std::size_t)>& task) {
  const std::size_t workers = std::min(parallel_worker_count(), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  auto run_worker = [&](std::size_t w) {
    try {
      for (std::size_t i = w; i < n; i += workers) task(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;  // join on scope exit, throw or not
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(run_worker, w);
    run_worker(0);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace dsbfs::util
