#include "graph/csr.hpp"

#include "graph/edge_list.hpp"

namespace dsbfs::graph {

HostCsr build_host_csr(const EdgeList& g) {
  return HostCsr::from_edges(g.num_vertices, g.dst, g.src);
}

WeightedHostCsr build_weighted_host_csr(const EdgeList& g) {
  WeightedHostCsr out;
  if (!g.weighted()) {
    out.csr = build_host_csr(g);
    return out;
  }
  out.csr = HostCsr::from_edges(g.num_vertices, g.dst, g.src,
                                std::span<const std::uint32_t>(g.weights),
                                out.weights);
  return out;
}

}  // namespace dsbfs::graph
