#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"

/// Non-RMAT graph generators.
///
/// Two of these stand in for the paper's real-world datasets, which are not
/// redistributable at reproduction time (docs/ARCHITECTURE.md, "Synthetic
/// stand-ins for the datasets"):
///   * `friendster_like` -- a Chung-Lu power-law graph with an isolated-
///     vertex fraction, matching the Friendster graph's description in
///     Section VI-D (134M vertices, about half isolated, 5.17B edges after
///     doubling; we default to a scaled-down shape with the same degree
///     exponent and isolated fraction);
///   * `webgraph_like` -- a long-tail host-chain graph approximating the WDC
///     2012 hyperlink graph's BFS behaviour: hundreds of iterations with
///     tiny frontiers, which is the regime where the paper observes DOBFS
///     losing its advantage.
/// The rest are small named graphs used throughout the test suite.
namespace dsbfs::graph {

struct ChungLuParams {
  std::uint64_t num_vertices = 1 << 20;
  std::uint64_t num_edges = 1 << 24;  // directed edges before doubling
  double exponent = 2.3;              // power-law exponent of weights
  std::uint32_t max_weight_degree = 1 << 16;
  double isolated_fraction = 0.0;     // vertices excluded from endpoints
  std::uint64_t seed = 1;
};

/// Chung-Lu model: endpoints drawn proportional to per-vertex weights
/// following a truncated power law.  Produces the dense-core scale-free
/// structure (degree separation behaves as on social graphs).
EdgeList chung_lu(const ChungLuParams& params);

struct FriendsterLikeParams {
  int scale = 20;  // ~2^scale vertices
  std::uint64_t seed = 1;
};

/// Scaled-down Friendster-shaped social graph (symmetric, permuted).
EdgeList friendster_like(const FriendsterLikeParams& params);

struct WebGraphLikeParams {
  int chain_length = 320;        // communities along the path (sets diameter)
  int community_size = 2048;     // vertices per community
  int intra_edges_per_vertex = 6;
  int hub_count_per_community = 4;
  std::uint64_t seed = 1;
};

/// Long-diameter web-like graph: a chain of communities, each with
/// power-law-ish hubs, plus sparse links to the next community.  Symmetric.
EdgeList webgraph_like(const WebGraphLikeParams& params);

// --- small named graphs for tests and examples -------------------------

/// 0-1-2-...-(n-1) path (symmetric).
EdgeList path_graph(std::uint64_t n);

/// Cycle over n vertices (symmetric).
EdgeList cycle_graph(std::uint64_t n);

/// Star: vertex 0 connected to all others (symmetric).
EdgeList star_graph(std::uint64_t n);

/// Complete graph on n vertices.
EdgeList complete_graph(std::uint64_t n);

/// w x h grid, 4-neighborhood (symmetric).
EdgeList grid_graph(std::uint64_t w, std::uint64_t h);

/// Complete binary tree on n vertices (symmetric).
EdgeList binary_tree(std::uint64_t n);

/// Uniform random graph: m directed edges, then symmetrized.
EdgeList erdos_renyi(std::uint64_t n, std::uint64_t m, std::uint64_t seed);

/// Two disconnected cliques (tests unreachable-vertex handling).
EdgeList two_cliques(std::uint64_t clique_size);

// --- stored edge weights ------------------------------------------------

/// Populate EdgeList::weights with seeded uniform weights in [1, max_weight].
/// The weight is a function of the *unordered* endpoint pair (and the seed),
/// so symmetric edge lists stay weight-consistent in both directions and
/// parallel edges agree -- the invariants the distributed SSSP pull path and
/// the weighted serial baseline both assume.  Works on any generator output,
/// before or after make_symmetric / permute_vertices; with seed variation it
/// is the "weighted RMAT / uniform" path of the stored-weight substrate.
void assign_uniform_weights(EdgeList& g, std::uint32_t max_weight,
                            std::uint64_t seed);

}  // namespace dsbfs::graph
