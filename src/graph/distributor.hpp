#pragma once

#include <cstdint>
#include <vector>

#include "graph/degree.hpp"
#include "graph/edge_list.hpp"
#include "sim/cluster.hpp"

/// Algorithm 1: the edge distributor.
///
/// Routes every directed edge to exactly one GPU:
///   * source normal            -> source's owner        (nn or nd edge)
///   * else destination normal  -> destination's owner   (dn edge)
///   * both delegates           -> the lower-out-degree endpoint's owner,
///                                 ties broken by min vertex id (dd edge)
/// Consequences the tests verify: nd/dn/dd subgraphs are locally symmetric
/// (each undirected pair lands on one GPU); local indices are bounded by
/// n/p (normals) and d (delegates); per-GPU edge counts are balanced.
namespace dsbfs::graph {

enum class EdgeKind : std::uint8_t { kNN = 0, kND = 1, kDN = 2, kDD = 3 };

/// Edges routed to one GPU, already translated to local encodings:
/// rows of nn/nd are local normal indices; rows of dn/dd are delegate ids;
/// nn columns are global vertex ids; nd/dd columns are delegate ids; dn
/// columns are local normal indices.  Every row space is a 32-bit LocalId
/// (build_distributed rejects n/p >= 2^32), so only nn columns are 64-bit;
/// LocalGraph maps them to 32-bit ghost ids (GhostTable).
/// On weighted inputs the per-subgraph weight arrays are parallel to the
/// row/col arrays (each edge carries its stored weight to the one GPU that
/// owns it); unweighted inputs leave them empty and `weighted` false.
struct GpuEdgeSets {
  std::vector<LocalId> nn_rows;
  std::vector<VertexId> nn_cols;
  std::vector<LocalId> nd_rows;
  std::vector<LocalId> nd_cols;
  std::vector<LocalId> dn_rows;
  std::vector<LocalId> dn_cols;
  std::vector<LocalId> dd_rows;
  std::vector<LocalId> dd_cols;
  std::vector<std::uint32_t> nn_weights;
  std::vector<std::uint32_t> nd_weights;
  std::vector<std::uint32_t> dn_weights;
  std::vector<std::uint32_t> dd_weights;
  bool weighted = false;

  std::uint64_t total_edges() const noexcept {
    return nn_rows.size() + nd_rows.size() + dn_rows.size() + dd_rows.size();
  }
};

struct DistributedEdges {
  std::vector<GpuEdgeSets> gpus;  // indexed by global GPU
  std::uint64_t enn = 0, end = 0, edn = 0, edd = 0;
};

/// Classify one edge (exposed for tests): which GPU and which kind.
struct EdgeRoute {
  int gpu = 0;
  EdgeKind kind = EdgeKind::kNN;
};
EdgeRoute route_edge(VertexId u, VertexId v,
                     const std::vector<std::uint32_t>& degrees,
                     std::uint32_t threshold, const sim::ClusterSpec& spec);

/// Distribute all edges in two passes over one contiguous edge chunk per
/// worker, each chunk its own task (util::parallel_tasks): pass 1 counts
/// (gpu, kind) per chunk, an exclusive prefix over chunks reserves every
/// chunk's write range, and pass 2 writes the local encodings there.  The
/// output keeps edge-index order within each array, so it is bit-identical
/// for every worker count.
DistributedEdges distribute_edges(const EdgeList& g,
                                  const std::vector<std::uint32_t>& degrees,
                                  const DelegateInfo& delegates,
                                  const sim::ClusterSpec& spec);

}  // namespace dsbfs::graph
