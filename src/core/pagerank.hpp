#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

/// PageRank on the degree-separated substrate -- the paper's named example
/// of "more bits of state for delegates: ranking scores for PageRank"
/// (Section VI-D).
///
/// Push formulation per iteration: every vertex distributes
/// rank / out_degree along its edges.  A normal vertex's entire adjacency
/// lives on its owner (Algorithm 1 routes all edges with a normal source to
/// that owner), so its shares are computed in one place; a delegate's
/// adjacency is scattered, but its rank is replicated, so every GPU pushes
/// the delegate's share along its local portion -- contributions then meet
/// in a global SUM reduction of d doubles.  Normal-vertex inflows from nn
/// edges travel through the (id, value) update exchange.  Dangling mass is
/// redistributed uniformly; with a damping factor of 0.85 the ranks sum
/// to 1 every iteration.
namespace dsbfs::core {

struct PagerankOptions {
  double damping = 0.85;
  int max_iterations = 50;
  /// Stop when the L1 rank change drops below this.
  double tolerance = 1e-9;
  /// Overlap (delegate inflow sum-reduction concurrent with the nn-inflow
  /// exchange), routing, resilience, and uniquify: sum-coalesce outbound
  /// contributions per bin before the send.  The receiver sums anyway, so
  /// only the floating-point addition order moves (well inside the
  /// iteration tolerance); dense rounds send far fewer (id, share) pairs.
  /// The codec encodes the (id, share) payload.  Bit-cast doubles
  /// varint-encode *larger* than raw, so kVarint mostly shows the cost and
  /// kAdaptive ships nearly every bin raw.  kGorilla is the codec built
  /// for them: successive shares from one source share sign, exponent and
  /// most mantissa bits, so the XOR stream compresses where varint
  /// inflates, and the per-bin choice keeps the wire never worse than raw.
  engine::RunOptions run{.uniquify = true};
};

/// The ranks plus the run's ValueRunReport (update_bytes_remote is the
/// normal rank-contribution traffic, reduce_bytes the delegate sums).
struct PagerankResult : ValueRunReport {
  std::vector<double> ranks;  // indexed by global vertex id; sums to ~1
  double final_delta = 0;     // last iteration's L1 change
};

class DistributedPagerank {
 public:
  DistributedPagerank(const graph::DistributedGraph& graph,
                      sim::Cluster& cluster, PagerankOptions options = {});

  /// Collective PageRank power iteration.
  PagerankResult run();

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  PagerankOptions options_;
};

}  // namespace dsbfs::core
