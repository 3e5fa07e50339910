#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/distributor.hpp"
#include "sim/cluster.hpp"
#include "sim/device.hpp"
#include "util/bitset.hpp"

/// Per-GPU subgraph bundle (paper Sections III-B/C, IV-B).
///
/// Each GPU holds four CSR subgraphs:
///   nn  rows = local normal vertices, cols = ghost ids (32-bit)
///   nd  rows = local normal vertices, cols = delegate ids (32-bit)
///   dn  rows = delegates,             cols = local normal ids (32-bit)
///   dd  rows = delegates,             cols = delegate ids (32-bit)
/// plus the direction-optimization helpers the paper keeps:
///   * the *source list* of the nd subgraph (normal vertices with delegate
///     neighbors) -- the pull candidates for backward delegate-to-normal
///     visits, since nd is the reverse of dn on the same GPU;
///   * *source masks* for dd and dn -- delegates with local dd/dn edges,
///     the pull candidates for backward dd and nd visits.
///
/// The paper stores nn columns as 64-bit global ids (Table I's 4|Enn|
/// term), so every nn edge is split into (owner GPU, local index) at run
/// time.  Here each GPU's distinct nn targets, its *ghosts*, get dense
/// 32-bit ids at build time instead (the ghost relabeling of distributed
/// BFS codes, Buluc-Madduri): grouped by owner GPU, each owner's range
/// padded to a multiple of 64 and ordered by the owner's local id.  The
/// GhostTable maps a ghost back to (owner, local id, global id), and masks
/// indexed by ghost id (the nn visit's `sent` and `pending`) cost the
/// ghost count, not n.
namespace dsbfs::graph {

/// The ghost table of one GPU's nn subgraph: p + 1 owner offsets and one
/// owner-local id per ghost slot.  Ghosts of owner GPU o occupy
/// [begin(o), end(o)); the ranges are ascending in o, each starts at a
/// multiple of 64, and within one the ghosts ascend by local id.  Slots
/// past an owner's last ghost (the padding up to the next multiple of 64)
/// hold kInvalidLocal and are the target of no edge.  Global ids are
/// computed from (owner, local id), not stored.  A 64-ghost block of a
/// lane mask thus belongs to one owner, so a mask over the ghosts can be
/// walked owner by owner a storage word at a time.
class GhostTable {
 public:
  GhostTable() = default;

  /// Numbers the distinct entries of `targets` (global ids of normal
  /// vertices of a `num_vertices`-vertex graph on `spec`) and writes
  /// entry i's ghost id to ghost_ids[i].  Uses one n-entry map.
  GhostTable(const sim::ClusterSpec& spec, VertexId num_vertices,
             std::span<const VertexId> targets,
             std::vector<LocalId>& ghost_ids);

  /// Owner GPUs (p), including this one.
  int num_owners() const noexcept {
    return static_cast<int>(offsets_.size()) - 1;
  }
  /// Ghost range of owner global GPU `owner`.
  LocalId begin(int owner) const noexcept {
    return offsets_[static_cast<std::size_t>(owner)];
  }
  LocalId end(int owner) const noexcept {
    return offsets_[static_cast<std::size_t>(owner) + 1];
  }
  /// Ghost slots, padding included: the item count of a ghost-indexed mask.
  std::size_t slots() const noexcept { return locals_.size(); }
  /// Distinct nn targets (padding excluded).
  std::uint64_t count() const noexcept { return count_; }

  /// Owner-local id of ghost `g` (kInvalidLocal on a padding slot).
  LocalId local(LocalId g) const noexcept { return locals_[g]; }
  /// Owner global GPU of ghost `g`.
  int owner(LocalId g) const noexcept;
  /// Global vertex id of ghost `g`.
  VertexId global(LocalId g) const noexcept {
    const sim::GpuCoord o = spec_.coord_of(owner(g));
    return spec_.global_vertex(o.rank, o.gpu, locals_[g]);
  }

  /// Offsets and ids, 4 bytes each: the table's device footprint.
  std::uint64_t storage_bytes() const noexcept {
    return (offsets_.size() + locals_.size()) * sizeof(LocalId);
  }

  const std::vector<LocalId>& offsets() const noexcept { return offsets_; }
  const std::vector<LocalId>& locals() const noexcept { return locals_; }

 private:
  sim::ClusterSpec spec_;
  std::vector<LocalId> offsets_;  // p + 1, multiples of 64
  std::vector<LocalId> locals_;   // one per slot
  std::uint64_t count_ = 0;
};

struct MemoryUsage {
  std::uint64_t nn_bytes = 0;
  std::uint64_t nd_bytes = 0;
  std::uint64_t dn_bytes = 0;
  std::uint64_t dd_bytes = 0;
  /// The nn ghost table (GhostTable::storage_bytes).
  std::uint64_t ghost_bytes = 0;
  std::uint64_t aux_bytes = 0;  // source lists/masks + level arrays + masks
  /// Stored per-edge weights (4 B per local edge; 0 on unweighted graphs).
  /// Kept out of subgraph_bytes() so Table I's unweighted accounting is
  /// unchanged; weighted workloads pay for it in total_bytes().
  std::uint64_t weight_bytes = 0;

  std::uint64_t subgraph_bytes() const noexcept {
    return nn_bytes + nd_bytes + dn_bytes + dd_bytes + ghost_bytes;
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

  /// nn columns are ghost ids; ghosts() maps them to their targets.
  const LocalCsrU32& nn() const noexcept { return nn_; }
  const GhostTable& ghosts() const noexcept { return ghosts_; }
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

  LocalCsrU32 nn_;
  GhostTable ghosts_;
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
