#pragma once

#include <cstdint>
#include <vector>

#include "graph/degree.hpp"
#include "graph/edge_list.hpp"
#include "graph/local_graph.hpp"
#include "sim/cluster.hpp"

/// End-to-end distributed graph construction:
/// edge list -> degrees -> delegate selection -> Algorithm-1 distribution ->
/// per-GPU LocalGraph bundles.
namespace dsbfs::graph {

class DistributedGraph {
 public:
  DistributedGraph() = default;

  const sim::ClusterSpec& spec() const noexcept { return spec_; }
  VertexId num_vertices() const noexcept { return num_vertices_; }
  /// Directed edge count after symmetrization (the paper's m).
  std::uint64_t num_edges() const noexcept { return num_edges_; }
  std::uint32_t threshold() const noexcept { return delegates_.threshold(); }
  /// True when the source edge list carried stored weights; every LocalGraph
  /// then holds per-edge weight arrays and weighted workloads (SSSP) read
  /// them instead of recomputing the endpoint-pair hash.
  bool weighted() const noexcept { return weighted_; }

  LocalId num_delegates() const noexcept { return delegates_.count(); }
  const DelegateInfo& delegates() const noexcept { return delegates_; }
  const std::vector<std::uint32_t>& degrees() const noexcept { return degrees_; }

  const LocalGraph& local(int global_gpu) const {
    return locals_.at(static_cast<std::size_t>(global_gpu));
  }
  std::size_t num_locals() const noexcept { return locals_.size(); }
  /// Local normals of the fullest GPU, ceil(n/p): every GPU's local ids
  /// stay below it.
  std::uint64_t max_local_normals() const noexcept {
    const auto p = static_cast<std::uint64_t>(spec_.total_gpus());
    return (num_vertices_ + p - 1) / p;
  }

  std::uint64_t enn() const noexcept { return enn_; }
  std::uint64_t end() const noexcept { return end_; }
  std::uint64_t edn() const noexcept { return edn_; }
  std::uint64_t edd() const noexcept { return edd_; }

  /// Sum of all subgraph storage across GPUs (Table I "Total" row),
  /// including the nn ghost tables.
  std::uint64_t total_subgraph_bytes() const noexcept;

  /// Table I's closed-form prediction: 8n + 8dp + 4m + 4|Enn| bytes, the
  /// paper's layout with 8-byte nn columns.  The stored layout replaces
  /// the 4|Enn| term by the ghost tables (MemoryUsage::ghost_bytes).
  std::uint64_t table1_predicted_bytes() const noexcept;

  friend DistributedGraph build_distributed(const EdgeList&, sim::ClusterSpec,
                                            std::uint32_t, sim::Cluster*);

 private:
  sim::ClusterSpec spec_;
  VertexId num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  bool weighted_ = false;
  std::vector<std::uint32_t> degrees_;
  DelegateInfo delegates_;
  std::vector<LocalGraph> locals_;
  std::uint64_t enn_ = 0, end_ = 0, edn_ = 0, edd_ = 0;
};

/// Build the distributed representation of a symmetric edge list.
/// When `cluster` is given, each LocalGraph registers its footprint on the
/// corresponding simulated device (memory-budget checks).
DistributedGraph build_distributed(const EdgeList& g, sim::ClusterSpec spec,
                                   std::uint32_t threshold,
                                   sim::Cluster* cluster = nullptr);

}  // namespace dsbfs::graph
