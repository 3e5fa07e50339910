#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/distributor.hpp"
#include "sim/cluster.hpp"
#include "sim/device.hpp"
#include "util/bitset.hpp"

/// Per-GPU subgraph bundle (paper Sections III-B/C, IV-B).
///
/// Each GPU holds four CSR subgraphs:
///   nn  rows = local normal vertices, cols = 64-bit global vertex ids
///   nd  rows = local normal vertices, cols = delegate ids (32-bit)
///   dn  rows = delegates,             cols = local normal ids (32-bit)
///   dd  rows = delegates,             cols = delegate ids (32-bit)
/// plus the direction-optimization helpers the paper keeps:
///   * the *source list* of the nd subgraph (normal vertices with delegate
///     neighbors) -- the pull candidates for backward delegate-to-normal
///     visits, since nd is the reverse of dn on the same GPU;
///   * *source masks* for dd and dn -- delegates with local dd/dn edges,
///     the pull candidates for backward dd and nd visits.
namespace dsbfs::graph {

struct MemoryUsage {
  std::uint64_t nn_bytes = 0;
  std::uint64_t nd_bytes = 0;
  std::uint64_t dn_bytes = 0;
  std::uint64_t dd_bytes = 0;
  std::uint64_t aux_bytes = 0;  // source lists/masks + level arrays + masks
  /// Stored per-edge weights (4 B per local edge; 0 on unweighted graphs).
  /// Kept out of subgraph_bytes() so Table I's unweighted accounting is
  /// unchanged; weighted workloads pay for it in total_bytes().
  std::uint64_t weight_bytes = 0;

  std::uint64_t subgraph_bytes() const noexcept {
    return nn_bytes + nd_bytes + dn_bytes + dd_bytes;
  }
  std::uint64_t total_bytes() const noexcept {
    return subgraph_bytes() + aux_bytes + weight_bytes;
  }
};

class LocalGraph {
 public:
  LocalGraph() = default;

  /// Build from the distributor's output for this GPU.  Consumes `edges`:
  /// each subgraph's staging arrays are freed once its CSR is built.
  LocalGraph(sim::ClusterSpec spec, sim::GpuCoord me, VertexId num_vertices,
             LocalId num_delegates, GpuEdgeSets&& edges);

  const sim::ClusterSpec& spec() const noexcept { return spec_; }
  sim::GpuCoord me() const noexcept { return me_; }
  std::uint64_t num_local_normals() const noexcept { return num_local_; }
  LocalId num_delegates() const noexcept { return num_delegates_; }
  VertexId num_global_vertices() const noexcept { return num_vertices_; }

  const LocalCsrU64& nn() const noexcept { return nn_; }
  const LocalCsrU32& nd() const noexcept { return nd_; }
  const LocalCsrU32& dn() const noexcept { return dn_; }
  const LocalCsrU32& dd() const noexcept { return dd_; }

  /// Stored per-edge weights in CSR edge order, parallel to each subgraph's
  /// cols(): weight of edge `e` of `nn()` is `nn_weights()[e]` with
  /// `row_begin(r) <= e < row_end(r)`.  Empty when the graph is unweighted
  /// (callers fall back to util::edge_weight on the endpoint pair).
  bool weighted() const noexcept { return weighted_; }
  const std::vector<std::uint32_t>& nn_weights() const noexcept { return nn_w_; }
  const std::vector<std::uint32_t>& nd_weights() const noexcept { return nd_w_; }
  const std::vector<std::uint32_t>& dn_weights() const noexcept { return dn_w_; }
  const std::vector<std::uint32_t>& dd_weights() const noexcept { return dd_w_; }

  const std::vector<LocalId>& nd_source_list() const noexcept {
    return nd_sources_;
  }
  const util::LaneBitset& nd_source_mask() const noexcept {
    return nd_source_mask_;
  }
  const util::LaneBitset& dd_source_mask() const noexcept {
    return dd_source_mask_;
  }
  const util::LaneBitset& dn_source_mask() const noexcept {
    return dn_source_mask_;
  }

  /// Number of local normals / delegates with outgoing edges in each
  /// subgraph (the `s` and `U` pools for direction decisions).
  std::uint64_t nd_source_count() const noexcept { return nd_sources_.size(); }
  std::uint64_t dd_source_count() const noexcept { return dd_source_count_; }
  std::uint64_t dn_source_count() const noexcept { return dn_source_count_; }

  /// Table-I style storage accounting for this GPU.
  MemoryUsage memory_usage() const noexcept;

  /// Register this graph's allocations on a simulated device.
  void register_on(sim::Device& device) const;

 private:
  sim::ClusterSpec spec_;
  sim::GpuCoord me_{};
  VertexId num_vertices_ = 0;
  std::uint64_t num_local_ = 0;
  LocalId num_delegates_ = 0;

  LocalCsrU64 nn_;
  LocalCsrU32 nd_;
  LocalCsrU32 dn_;
  LocalCsrU32 dd_;

  bool weighted_ = false;
  std::vector<std::uint32_t> nn_w_;
  std::vector<std::uint32_t> nd_w_;
  std::vector<std::uint32_t> dn_w_;
  std::vector<std::uint32_t> dd_w_;

  std::vector<LocalId> nd_sources_;
  util::LaneBitset nd_source_mask_;
  util::LaneBitset dd_source_mask_;
  util::LaneBitset dn_source_mask_;
  std::uint64_t dd_source_count_ = 0;
  std::uint64_t dn_source_count_ = 0;
};

/// Number of normal-vertex slots GPU (rank, gpu) owns for an n-vertex graph.
std::uint64_t local_normal_count(const sim::ClusterSpec& spec, sim::GpuCoord me,
                                 VertexId num_vertices);

}  // namespace dsbfs::graph
