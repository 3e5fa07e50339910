#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

/// Single-source shortest paths on the degree-separated substrate -- the
/// first workload added *on top of* the IterativeEngine rather than ported
/// to it, exercising the paper's Section VI-D generalization end to end:
/// delegates carry a 64-bit distance combined by global MIN reductions, and
/// normal vertices exchange (id, tentative distance) updates through
/// comm::exchange.
///
/// ## Edge weights
///
/// Two weight sources, selected by the graph:
///   * **hashed** (graph::DistributedGraph::weighted() == false): weights
///     are deterministic hashes of the endpoint pair (util::edge_weight),
///     symmetric and recomputable anywhere, so the unweighted graph needs no
///     per-edge storage and the serial reference sees identical weights;
///   * **stored** (weighted() == true): per-edge weights generated into
///     EdgeList::weights ride the Algorithm-1 distribution into each
///     LocalGraph's per-subgraph weight arrays, and relaxation reads them by
///     CSR edge index.  `max_weight` is then ignored.
/// Both are symmetric per undirected pair, which the pull mode requires.
///
/// ## Direction-optimized relaxation (Section IV-B applied to SSSP)
///
/// The iteration is label-correcting Bellman-Ford: active vertices relax
/// incident edges, improved vertices become the next active set, and the
/// run converges when the engine's control allreduce counts zero
/// improvements cluster-wide.  With `direction_optimized`, the dd / dn / nd
/// relax kernels reuse the BFS DirectionState machinery:
///
///   * forward (push): active vertices relax out-edges, exactly the BFS
///     visit shape with distance-plus-weight in place of depth;
///   * backward (pull): every pull-candidate row scans its *entire* local
///     reverse row and folds min(dist[neighbor] + weight) into its own
///     tentative distance.  Unlike BFS pull there is no early exit -- the
///     minimum needs the whole row -- so the backward workload estimate is
///     the subgraph's pull-edge mass (core::sssp_backward_workload), and
///     the switching factors compare the frontier's edge mass against it.
///
/// Pull relaxes a superset of the edges push would relax in that round
/// (neighbors at any finite distance contribute, not only active ones), so
/// per-round tentative distances may differ between modes; converged
/// distances are the unique shortest-path distances and therefore
/// bit-identical to forced-push mode and to the serial baseline.  nn
/// relaxations are always push: the nn subgraph has no local reverse.
namespace dsbfs::core {

struct SsspOptions {
  /// Hashed-weight fallback: weights drawn from [1, max_weight] by
  /// util::edge_weight.  Ignored when the graph stores real weights.
  std::uint32_t max_weight = 15;
  /// Direction optimization on the dd / dn / nd relax kernels (nn is always
  /// forward).  false = forced push, the historic label-correcting shape.
  /// Off by default, unlike BFS: the per-round decision-kernel launches
  /// amortize only once per-GPU subgraph edge masses reach the
  /// millions-of-edges regime (docs/TUNING.md "SSSP" derives the
  /// break-even); at bench/test scales forced push is modeled faster.
  bool direction_optimized = false;
  /// SSSP switching factors (see docs/TUNING.md): forward -> backward when
  /// the kernel's frontier edge mass exceeds to_backward times the
  /// subgraph's pull-edge mass; back to forward below to_forward times it.
  /// Defaults come from the tuned table in core/direction.hpp
  /// (kSsspDirectionSeeds), which sits at the modeled kernel-rate crossover
  /// (backward edges cost ns_per_edge_backward / ns_per_edge_forward_* of a
  /// forward edge, so pull wins once FV/E exceeds ~0.79 for the merge-based
  /// dd and ~0.61 for dn/nd).  Unlike BFS (to_forward = 0), SSSP must switch
  /// back: the converging tail rounds are sparse again.
  DirectionFactors dd_factors = kSsspDirectionSeeds.dd;
  DirectionFactors dn_factors = kSsspDirectionSeeds.dn;
  DirectionFactors nd_factors = kSsspDirectionSeeds.nd;
  /// Online self-tuning of the factors above (core::DirectionController;
  /// see BfsOptions::adaptive_direction -- identical semantics).  Only
  /// consulted when direction_optimized is on.
  bool adaptive_direction = true;
  /// Overlap (delegate distance min-reduction concurrent with the
  /// tentative-distance exchange), routing, resilience, and uniquify:
  /// min-coalesce outbound distance candidates per bin before the send;
  /// bit-exact, strictly fewer bytes on dense rounds.  The varint codecs
  /// ship the (id, distance) values biased by a per-round floor of the
  /// active distances.
  engine::RunOptions run{.uniquify = true};
};

/// The distances plus the run's ValueRunReport (update_bytes_remote is the
/// tentative-distance traffic, reduce_bytes the delegate distance
/// reductions; pull_iterations counts rounds in which at least one GPU ran
/// a relax kernel backward, 0 with direction_optimized off).
struct SsspResult : ValueRunReport {
  /// distances[v] = weighted distance from the source, kInfiniteDistance
  /// for unreachable vertices.
  std::vector<std::uint64_t> distances;
};

class DistributedSssp {
 public:
  /// `graph` and `cluster` must outlive the DistributedSssp and share spec.
  DistributedSssp(const graph::DistributedGraph& graph, sim::Cluster& cluster,
                  SsspOptions options = {});

  const SsspOptions& options() const noexcept { return options_; }

  /// One full SSSP from `source`.  Collective over all simulated GPUs;
  /// callable repeatedly (per-run state is rebuilt).
  SsspResult run(VertexId source);

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  SsspOptions options_;
};

}  // namespace dsbfs::core
