#include "core/delta_sssp.hpp"

#include <utility>

namespace dsbfs::core {

namespace {

/// The single-source options as the W = 1 batched run at 64-bit values.
BatchSsspOptions batch_options(const DeltaSsspOptions& o) {
  return {.delta = o.delta,
          .max_weight = o.max_weight,
          .value_bits = 64,
          .run = o.run,
          .codec = o.codec};
}

}  // namespace

DistributedDeltaSssp::DistributedDeltaSssp(
    const graph::DistributedGraph& graph, sim::Cluster& cluster,
    DeltaSsspOptions options)
    : options_(options), batch_(graph, cluster, batch_options(options)) {}

DeltaSsspResult DistributedDeltaSssp::run(VertexId source) {
  BatchSsspResult b = batch_.run({source});
  DeltaSsspResult r;
  r.distances = std::move(b.distances[0]);
  r.iterations = b.iterations;
  r.buckets_processed = b.buckets_processed;
  r.light_iterations = b.light_iterations;
  r.heavy_iterations = b.heavy_iterations;
  r.light_relaxations = b.light_relaxations;
  r.heavy_relaxations = b.heavy_relaxations;
  r.measured_ms = b.measured_ms;
  r.modeled_ms = b.modeled_ms;
  r.modeled = b.modeled;
  r.update_bytes_remote = b.update_bytes_remote;
  r.reduce_bytes = b.reduce_bytes;
  r.fault = std::move(b.fault);
  r.counters = std::move(b.counters);
  return r;
}

}  // namespace dsbfs::core
