#include "graph/local_graph.hpp"

#include <stdexcept>
#include <type_traits>

namespace dsbfs::graph {

namespace {
/// Free a vector's storage (clear() keeps the capacity).
template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}
}  // namespace

std::uint64_t local_normal_count(const sim::ClusterSpec& spec, sim::GpuCoord me,
                                 VertexId num_vertices) {
  // Vertices owned by (rank, gpu) are those with v mod p == gpu*prank + rank.
  const std::uint64_t p = static_cast<std::uint64_t>(spec.total_gpus());
  const std::uint64_t residue =
      static_cast<std::uint64_t>(me.gpu) * static_cast<std::uint64_t>(spec.num_ranks) +
      static_cast<std::uint64_t>(me.rank);
  if (num_vertices <= residue) return 0;
  return (num_vertices - residue + p - 1) / p;
}

GhostTable::GhostTable(const sim::ClusterSpec& spec, VertexId num_vertices,
                       std::span<const VertexId> targets,
                       std::vector<LocalId>& ghost_ids)
    : spec_(spec) {
  // Mark every target in an n-entry map, number the marks owner by owner
  // in ascending local id, then look each target's number up.
  constexpr LocalId kTarget = 0;
  std::vector<LocalId> ghost_of(num_vertices, kInvalidLocal);
  for (const VertexId v : targets) ghost_of[v] = kTarget;
  const int p = spec.total_gpus();
  offsets_.reserve(static_cast<std::size_t>(p) + 1);
  std::uint64_t next = 0;
  for (int owner = 0; owner < p; ++owner) {
    offsets_.push_back(static_cast<LocalId>(next));
    const sim::GpuCoord o = spec.coord_of(owner);
    const std::uint64_t n_owner = local_normal_count(spec, o, num_vertices);
    for (std::uint64_t l = 0; l < n_owner; ++l) {
      LocalId& slot = ghost_of[spec.global_vertex(o.rank, o.gpu, l)];
      if (slot != kTarget) continue;
      slot = static_cast<LocalId>(next++);
      locals_.push_back(static_cast<LocalId>(l));
    }
    count_ += next - offsets_.back();
    for (; next % 64 != 0; ++next) locals_.push_back(kInvalidLocal);
    if (next >= kInvalidLocal) {
      throw std::invalid_argument("nn ghost count exceeds 32-bit id space");
    }
  }
  offsets_.push_back(static_cast<LocalId>(next));
  ghost_ids.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ghost_ids[i] = ghost_of[targets[i]];
  }
}

int GhostTable::owner(LocalId g) const noexcept {
  // The last range start <= g, by a binary search whose compare feeds a
  // conditional move: the value sweeps look up random ghosts, which would
  // mispredict a branch half the time.
  const LocalId* first = offsets_.data();
  for (std::size_t n = offsets_.size() - 1; n > 1;) {
    const std::size_t half = n / 2;
    first = first[half] <= g ? first + half : first;
    n -= half;
  }
  return static_cast<int>(first - offsets_.data());
}

LocalGraph::LocalGraph(sim::ClusterSpec spec, sim::GpuCoord me,
                       VertexId num_vertices, LocalId num_delegates,
                       GpuEdgeSets&& edges)
    : spec_(spec),
      me_(me),
      num_vertices_(num_vertices),
      num_local_(local_normal_count(spec, me, num_vertices)),
      num_delegates_(num_delegates) {
  if (num_local_ > static_cast<std::uint64_t>(kInvalidLocal)) {
    throw std::invalid_argument(
        "local normal count exceeds 32-bit local id space; use more GPUs");
  }

  // Build the subgraphs one at a time and free each one's staging arrays
  // right after, so the staging copy of the whole GPU never coexists with
  // all four finished CSRs.
  weighted_ = edges.weighted;
  const auto build = [this](auto& csr, std::uint64_t num_rows, auto& rows,
                            auto& cols, std::vector<std::uint32_t>& weights,
                            std::vector<std::uint32_t>& weights_out) {
    using CsrT = std::remove_reference_t<decltype(csr)>;
    if (weighted_) {
      csr = CsrT::from_edges(num_rows, cols, rows,
                             std::span<const std::uint32_t>(weights),
                             weights_out);
    } else {
      csr = CsrT::from_edges(num_rows, cols, rows);
    }
    release(rows);
    release(cols);
    release(weights);
  };
  // nn columns become ghost ids, and the 8-byte staging columns go before
  // the CSR is built.
  std::vector<LocalId> nn_ghosts;
  ghosts_ = GhostTable(spec, num_vertices, edges.nn_cols, nn_ghosts);
  release(edges.nn_cols);
  build(nn_, num_local_, edges.nn_rows, nn_ghosts, edges.nn_weights, nn_w_);
  build(nd_, num_local_, edges.nd_rows, edges.nd_cols, edges.nd_weights, nd_w_);
  build(dn_, num_delegates_, edges.dn_rows, edges.dn_cols, edges.dn_weights,
        dn_w_);
  build(dd_, num_delegates_, edges.dd_rows, edges.dd_cols, edges.dd_weights,
        dd_w_);

  // Direction-optimization helpers (Section IV-B).
  nd_source_mask_.resize(num_local_);
  for (std::uint64_t v = 0; v < num_local_; ++v) {
    if (nd_.row_length(v) > 0) {
      nd_sources_.push_back(static_cast<LocalId>(v));
      nd_source_mask_.set(v);
    }
  }
  dd_source_mask_.resize(num_delegates_);
  dn_source_mask_.resize(num_delegates_);
  for (LocalId t = 0; t < num_delegates_; ++t) {
    if (dd_.row_length(t) > 0) {
      dd_source_mask_.set(t);
      ++dd_source_count_;
    }
    if (dn_.row_length(t) > 0) {
      dn_source_mask_.set(t);
      ++dn_source_count_;
    }
  }
}

MemoryUsage LocalGraph::memory_usage() const noexcept {
  MemoryUsage m;
  m.nn_bytes = nn_.storage_bytes();
  m.ghost_bytes = ghosts_.storage_bytes();
  m.nd_bytes = nd_.storage_bytes();
  m.dn_bytes = dn_.storage_bytes();
  m.dd_bytes = dd_.storage_bytes();
  m.aux_bytes = nd_sources_.size() * sizeof(LocalId) +
                nd_source_mask_.byte_size() + dd_source_mask_.byte_size() +
                dn_source_mask_.byte_size();
  m.weight_bytes =
      (nn_w_.size() + nd_w_.size() + dn_w_.size() + dd_w_.size()) *
      sizeof(std::uint32_t);
  return m;
}

void LocalGraph::register_on(sim::Device& device) const {
  const MemoryUsage m = memory_usage();
  device.allocate("graph.nn", m.nn_bytes);
  device.allocate("graph.ghosts", m.ghost_bytes);
  device.allocate("graph.nd", m.nd_bytes);
  device.allocate("graph.dn", m.dn_bytes);
  device.allocate("graph.dd", m.dd_bytes);
  device.allocate("graph.aux", m.aux_bytes);
  if (m.weight_bytes > 0) device.allocate("graph.weights", m.weight_bytes);
}

}  // namespace dsbfs::graph
