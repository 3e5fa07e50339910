#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

/// Host-side parallel helpers.
///
/// Construction utilities (graph generation, CSR building, validation) run on
/// the host and want simple fork-join parallelism.  The *traversal* itself
/// deliberately does not use this: each simulated GPU owns one thread (see
/// sim::Cluster) so that the communication substrate sees genuine
/// concurrency between devices.
namespace dsbfs::util {

/// Number of worker threads used by parallel_for (defaults to hardware).
std::size_t parallel_worker_count() noexcept;

/// Override worker count (0 = hardware concurrency).  For tests.
void set_parallel_worker_count(std::size_t n) noexcept;

/// Invoke fn(begin, end) on disjoint chunks of [begin, end) across threads.
/// Blocks until all chunks complete.  Falls back to serial for small ranges.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn);

/// Coarse-task parallel for: run task(i) once for every i in [0, n) on
/// min(n, parallel_worker_count()) threads, the calling thread included.
/// Unlike parallel_for_chunks there is no element cutoff, so a handful of
/// heavy tasks (one per edge chunk, one per GPU) really run concurrently.
/// Task i runs on worker i mod workers.  With one worker every task runs
/// inline, in index order.  Blocks until every worker is done.  A task that
/// throws skips its worker's later tasks; the first exception is rethrown
/// here after every thread has joined.
void parallel_tasks(std::size_t n, const std::function<void(std::size_t)>& task);

/// Element-wise parallel for.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  parallel_for_chunks(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace dsbfs::util
