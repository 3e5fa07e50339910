#pragma once

// Pinned single-source BFS runs: RMAT-12 (seed 19) on 2x2 GPUs at TH 32,
// from sample_source(3), under the default hybrid, forced push and hybrid
// with parents.  Every facade that runs one source -- DistributedBfs and a
// one-source DistributedBatchBfs -- must reproduce them.  How the kernels
// route, order and mark their work may change; the traversal they
// perform, the bytes they move and the time the model charges for it may
// not.
//
// `remote_bytes_before` is the pin from before the nn visit shipped each
// target once per sender (modeled 0.3792468134354901 ms for both hybrid
// runs, 0.30707070052007474 ms for push): that filter may only remove
// bytes.  `modeled_ms_before` is the pin from before the single-source BFS
// ran on the lane engine, whose previsits fuse the direction estimates
// into their queue scans (direction_decisions_fused): the hybrid runs may
// only get cheaper, and forced push, which makes no decisions, must not
// move.  `modeled_ms_before_cap` is the pin from before the early-exit
// pull estimate was capped at its candidates' edge mass and the direction
// factors became the device model's rate ratios: the hybrid runs' nd
// kernel then pulled in 19 launches over 1453 vertices and 7384 edges
// (now 16, 111 and 190), and they may only get cheaper; forced push must
// not move.  The distance and parent digests did not move.  Every other
// column is the pre-lane-engine DistributedBfs value.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "graph/builder.hpp"
#include "graph/rmat.hpp"
#include "sim/cluster.hpp"
#include "util/hash.hpp"

namespace dsbfs::core::golden {

/// Run-summed per-kernel work: {dd, dn, nd, nn} edges, vertices and the
/// number of (iteration, GPU) launches that pulled.
struct KernelTotals {
  std::uint64_t edges[4] = {};
  std::uint64_t vertices[4] = {};
  std::uint64_t backward[4] = {};
};

inline KernelTotals kernel_totals(const sim::RunCounters& counters) {
  KernelTotals t;
  for (const auto& ic : counters.iterations) {
    for (const auto& gc : ic.gpu) {
      const sim::KernelCounters* kernels[4] = {&gc.dd, &gc.dn, &gc.nd, &gc.nn};
      for (int i = 0; i < 4; ++i) {
        t.edges[i] += kernels[i]->edges;
        t.vertices[i] += kernels[i]->vertices;
        t.backward[i] += kernels[i]->backward ? 1 : 0;
      }
    }
  }
  return t;
}

template <typename T>
std::uint64_t digest(const std::vector<T>& values) {
  std::uint64_t h = values.size();
  for (const T v : values) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

struct BfsGolden {
  const char* name;
  bool direction_optimized, parents;
  int iterations;
  std::uint64_t edges[4], vertices[4], backward[4];  // dd, dn, nd, nn
  std::uint64_t remote_bytes, mask_bytes;
  std::uint64_t distance_digest, parent_digest;
  double modeled_ms;
  std::uint64_t remote_bytes_before;
  double modeled_ms_before;
  double modeled_ms_before_cap;
};

inline constexpr BfsGolden kBfsGoldens[] = {
    {"hybrid", true, false, 6,
     {6384, 2858, 190, 2172}, {137, 1779, 111, 2556}, {16, 16, 16, 0},
     3692, 1188, 0x893c40b21137e6adULL, 0x0000000000000000ULL,
     0.2875564929532432, 4424, 0.37102984119123317, 0.28950242392987102},
    {"push", false, false, 6,
     {97164, 15867, 15867, 2172}, {2986, 2986, 2556, 2556}, {0, 0, 0, 0},
     3692, 1188, 0x893c40b21137e6adULL, 0x0000000000000000ULL,
     0.29883416895324322, 4424, 0.29883416895324322, 0.29883416895324322},
    {"hybrid_parents", true, true, 6,
     {6384, 2858, 190, 2172}, {137, 1779, 111, 2556}, {16, 16, 16, 0},
     3692, 1188, 0x893c40b21137e6adULL, 0x3f289557c1071d51ULL,
     0.2875564929532432, 4424, 0.37102984119123317, 0.28950242392987102},
};

/// The pinned runs' graph, cluster and source.
struct BfsGoldenSetup {
  static sim::ClusterSpec make_spec() {
    sim::ClusterSpec spec;
    spec.num_ranks = 2;
    spec.gpus_per_rank = 2;
    return spec;
  }

  const graph::EdgeList edges =
      graph::rmat_graph500({.scale = 12, .seed = 19});
  const sim::ClusterSpec spec = make_spec();
  sim::Cluster cluster{spec};
  const graph::DistributedGraph dg = graph::build_distributed(edges, spec, 32);
  static constexpr std::uint64_t kSourceIndex = 3;  // sample_source(3)
};

/// Checks one run against its pin.  `parents` is empty unless the run
/// recorded them.
inline void expect_bfs_golden(const BfsGolden& gold,
                              const std::vector<Depth>& distances,
                              const std::vector<VertexId>& parents,
                              const RunMetrics& m) {
  const KernelTotals k = kernel_totals(m.counters);
  EXPECT_EQ(m.iterations, gold.iterations);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(k.edges[i], gold.edges[i]) << "kernel " << i;
    EXPECT_EQ(k.vertices[i], gold.vertices[i]) << "kernel " << i;
    EXPECT_EQ(k.backward[i], gold.backward[i]) << "kernel " << i;
  }
  EXPECT_LE(gold.remote_bytes, gold.remote_bytes_before);
  EXPECT_LE(gold.modeled_ms, gold.modeled_ms_before);
  EXPECT_LE(gold.modeled_ms, gold.modeled_ms_before_cap);
  if (!gold.direction_optimized) {
    EXPECT_EQ(gold.modeled_ms, gold.modeled_ms_before);
    EXPECT_EQ(gold.modeled_ms, gold.modeled_ms_before_cap);
  }
  EXPECT_EQ(m.exchange_remote_bytes, gold.remote_bytes);
  EXPECT_EQ(m.mask_reduce_bytes, gold.mask_bytes);
  EXPECT_EQ(digest(distances), gold.distance_digest);
  EXPECT_EQ(digest(parents), gold.parent_digest);
  EXPECT_NEAR(m.modeled_ms, gold.modeled_ms, 1e-12 * gold.modeled_ms);
}

}  // namespace dsbfs::core::golden
