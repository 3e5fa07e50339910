#pragma once

#include <concepts>
#include <cstdint>
#include <ranges>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/types.hpp"

/// Compressed sparse row storage, parameterized on column and offset width.
///
/// The paper deliberately sticks to CSR (Section II-D) rather than exotic
/// formats, so the library can interoperate with standard pipelines.  Local
/// subgraphs use 32-bit offsets and columns (Table I); the host-side
/// reference graph uses 64-bit everywhere.
namespace dsbfs::graph {

/// A contiguous array of unsigned row indices (vector or span, any width).
template <typename Rows>
concept RowArray =
    std::ranges::contiguous_range<Rows> && std::ranges::sized_range<Rows> &&
    std::unsigned_integral<std::ranges::range_value_t<Rows>>;

template <typename Col, typename Off>
class Csr {
 public:
  Csr() = default;

  /// Build from rows: `row_of[i]`, `col_of[i]` pairs, with `num_rows` rows.
  /// Entries need not be sorted; within a row, input order is preserved for
  /// equal rows after the counting sort.  `row_of` is any contiguous array of
  /// unsigned row indices: 64-bit for host graphs, 32-bit (LocalId) for the
  /// distributor's staging rows.  The span default keeps `{}` callable.
  template <typename Rows = std::span<const std::uint64_t>>
    requires RowArray<Rows>
  static Csr from_edges(std::size_t num_rows, std::span<const Col> col_of,
                        const Rows& row_of) {
    Csr out;
    std::vector<Off> cursor = out.count_rows(num_rows, col_of, row_of);
    for (std::size_t i = 0; i < col_of.size(); ++i) {
      out.cols_[cursor[row_of[i]]++] = col_of[i];
    }
    return out;
  }

  /// As above, but additionally permutes a parallel per-edge payload array
  /// (stored edge weights) into CSR edge order: after the call,
  /// `payload_out[e]` belongs to the edge at `cols()[e]`.  The payload rides
  /// the identical counting sort, so `row(r)` and the payload slice
  /// `[row_begin(r), row_end(r))` stay aligned.
  template <typename Payload, typename Rows>
    requires RowArray<Rows>
  static Csr from_edges(std::size_t num_rows, std::span<const Col> col_of,
                        const Rows& row_of,
                        std::span<const Payload> payload_of,
                        std::vector<Payload>& payload_out) {
    if (payload_of.size() != col_of.size()) {
      throw std::invalid_argument(
          "csr: payload array differs from cols in length");
    }
    Csr out;
    std::vector<Off> cursor = out.count_rows(num_rows, col_of, row_of);
    payload_out.assign(out.cols_.size(), Payload{});
    for (std::size_t i = 0; i < col_of.size(); ++i) {
      const Off pos = cursor[row_of[i]]++;
      out.cols_[pos] = col_of[i];
      payload_out[pos] = payload_of[i];
    }
    return out;
  }

  std::size_t num_rows() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::uint64_t num_edges() const noexcept { return cols_.size(); }

  std::uint64_t row_begin(std::size_t r) const noexcept { return offsets_[r]; }
  std::uint64_t row_end(std::size_t r) const noexcept { return offsets_[r + 1]; }
  std::uint32_t row_length(std::size_t r) const noexcept {
    return static_cast<std::uint32_t>(offsets_[r + 1] - offsets_[r]);
  }
  std::span<const Col> row(std::size_t r) const noexcept {
    return std::span<const Col>(cols_.data() + offsets_[r],
                                cols_.data() + offsets_[r + 1]);
  }
  Col col(std::uint64_t edge) const noexcept { return cols_[edge]; }

  /// Storage footprint in bytes (offsets + columns), the Table-I accounting.
  std::uint64_t storage_bytes() const noexcept {
    return offsets_.size() * sizeof(Off) + cols_.size() * sizeof(Col);
  }

  const std::vector<Off>& offsets() const noexcept { return offsets_; }
  const std::vector<Col>& cols() const noexcept { return cols_; }

 private:
  /// Shared first half of the counting sort: validate, histogram the rows
  /// into offsets_, size cols_, and return the per-row write cursors.
  template <typename Rows>
  std::vector<Off> count_rows(std::size_t num_rows,
                              std::span<const Col> col_of,
                              const Rows& row_of) {
    if (col_of.size() != std::ranges::size(row_of)) {
      throw std::invalid_argument("csr: row/col arrays differ in length");
    }
    offsets_.assign(num_rows + 1, 0);
    for (const std::uint64_t r : row_of) {
      offsets_[r + 1] += 1;
    }
    for (std::size_t r = 0; r < num_rows; ++r) {
      offsets_[r + 1] += offsets_[r];
    }
    const std::uint64_t total = offsets_[num_rows];
    if (total != col_of.size()) {
      throw std::logic_error("csr: row index out of range");
    }
    cols_.resize(total);
    return std::vector<Off>(offsets_.begin(), offsets_.end() - 1);
  }

  std::vector<Off> offsets_;  // num_rows + 1
  std::vector<Col> cols_;
};

/// Host-side reference CSR (64-bit), used by baselines and validation.
using HostCsr = Csr<VertexId, EdgeId>;

/// Local subgraph CSR with the paper's 32-bit local encoding.
using LocalCsrU32 = Csr<LocalId, std::uint32_t>;
/// 32-bit offsets but 64-bit global destinations (the 1D baseline's
/// per-GPU partitions; the nn subgraph stores 32-bit ghost ids).
using LocalCsrU64 = Csr<VertexId, std::uint32_t>;

struct EdgeList;  // graph/edge_list.hpp

/// Build the host CSR of an edge list.
HostCsr build_host_csr(const EdgeList& g);

/// Host CSR plus per-edge stored weights in CSR edge order (empty when the
/// edge list is unweighted).  The weighted serial SSSP baseline consumes
/// this; `weights[e]` pairs with `csr.cols()[e]`.
struct WeightedHostCsr {
  HostCsr csr;
  std::vector<std::uint32_t> weights;
};

WeightedHostCsr build_weighted_host_csr(const EdgeList& g);

}  // namespace dsbfs::graph
