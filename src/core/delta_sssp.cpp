#include "core/delta_sssp.hpp"

#include <utility>

namespace dsbfs::core {

namespace {

/// The single-source options as the W = 1 batched run at 64-bit values.
BatchSsspOptions batch_options(const DeltaSsspOptions& o) {
  return {.delta = o.delta,
          .max_weight = o.max_weight,
          .value_bits = 64,
          .run = o.run};
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
  static_cast<ValueRunReport&>(r) = std::move(b);
  return r;
}

}  // namespace dsbfs::core
