#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"

/// Degree-threshold analytics behind Figures 5, 7 and 12.
///
/// For a given TH the edge population splits into dd / dn / nd / nn by the
/// delegate-ness of each endpoint, and a delegate fraction follows.  An edge
/// is dd iff its min endpoint degree exceeds TH and nn iff its max endpoint
/// degree does not, so the sweeper makes one parallel pass over the edges
/// into per-worker min- and max-degree histograms (plus a vertex-degree
/// histogram) and keeps their suffix / prefix sums.  Construction is
/// O(n + m / workers + workers * D) time for max degree D, memory is O(D)
/// kept (O(workers * D) while building), and each at() is O(1); a whole TH
/// sweep costs O(#TH) instead of O(#TH * m).
namespace dsbfs::graph {

struct PartitionStats {
  std::uint32_t threshold = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t delegates = 0;
  std::uint64_t dd_edges = 0;
  std::uint64_t dn_nd_edges = 0;  // dn + nd (equal by symmetry)
  std::uint64_t nn_edges = 0;

  double delegate_pct() const noexcept {
    return num_vertices ? 100.0 * static_cast<double>(delegates) /
                              static_cast<double>(num_vertices)
                        : 0.0;
  }
  double dd_pct() const noexcept { return edge_pct(dd_edges); }
  double dn_nd_pct() const noexcept { return edge_pct(dn_nd_edges); }
  double nn_pct() const noexcept { return edge_pct(nn_edges); }

 private:
  double edge_pct(std::uint64_t e) const noexcept {
    return num_edges ? 100.0 * static_cast<double>(e) /
                           static_cast<double>(num_edges)
                     : 0.0;
  }
};

class PartitionStatsSweeper {
 public:
  explicit PartitionStatsSweeper(const EdgeList& g);

  /// Stats at a specific threshold (O(1)).
  PartitionStats at(std::uint32_t threshold) const;

  std::uint64_t num_vertices() const noexcept { return num_vertices_; }
  std::uint64_t num_edges() const noexcept { return num_edges_; }

 private:
  std::uint64_t num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  // Indexed by degree k in [0, D]; a threshold above D reads entry D.
  std::vector<std::uint64_t> delegates_above_;  // vertices with degree > k
  std::vector<std::uint64_t> dd_above_;    // edges with min endpoint degree > k
  std::vector<std::uint64_t> nn_at_most_;  // edges with max endpoint degree <= k
};

struct ThresholdPolicy {
  /// Keep d under factor * n / p (paper uses 4).
  double max_delegate_factor = 4.0;
  /// Also keep d under this absolute fraction of n, so small clusters do
  /// not replicate half the graph (the paper's Fig. 7 choices stay under a
  /// few percent of n at every scale).
  double max_delegate_fraction = 0.04;
};

/// Smallest threshold from a sqrt(2)-spaced ladder satisfying the policy
/// for `total_gpus` GPUs; mirrors the paper's Fig. 7 recommendation where
/// the suggested TH grows ~sqrt(2) per scale along the weak-scaling curve.
std::uint32_t suggest_threshold(const PartitionStatsSweeper& sweeper,
                                int total_gpus,
                                const ThresholdPolicy& policy = {});

}  // namespace dsbfs::graph
