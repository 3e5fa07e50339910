#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/device.hpp"

/// Simulated cluster topology.
///
/// The paper denotes hardware as `nodes x ranks-per-node x gpus-per-rank`
/// (e.g. 31x2x2 = 124 GPUs).  Communication-wise only two levels matter:
/// the MPI rank (network endpoint, prank total) and the GPUs within a rank
/// (pgpu, connected by NVLink).  We therefore model ClusterSpec as
/// (num_ranks, gpus_per_rank) plus a ranks_per_node field that the network
/// model uses to decide which rank pairs share a node.
namespace dsbfs::sim {

struct GpuCoord {
  int rank = 0;
  int gpu = 0;  // index within the rank

  bool operator==(const GpuCoord&) const = default;
};

struct ClusterSpec {
  int num_ranks = 1;       // prank
  int gpus_per_rank = 1;   // pgpu
  int ranks_per_node = 1;  // for the network model (NVLink vs NIC)

  int total_gpus() const noexcept { return num_ranks * gpus_per_rank; }
  int num_nodes() const noexcept {
    return (num_ranks + ranks_per_node - 1) / ranks_per_node;
  }

  /// Node containing a rank / a global GPU (the exchange-topology layer
  /// routes by node: same node = NVLink, different node = IB).
  int node_of_rank(int rank) const noexcept { return rank / ranks_per_node; }
  int node_of(int global_gpu) const noexcept {
    return node_of_rank(global_gpu / gpus_per_rank);
  }
  /// First (lowest-index) global GPU on a node: the leader that aggregates
  /// outbound inter-node traffic in the hierarchical/butterfly exchanges.
  int node_leader(int node) const noexcept {
    return node * ranks_per_node * gpus_per_rank;
  }
  /// GPUs sharing one node's NVLink domain (last node may be partial).
  int gpus_per_node(int node) const noexcept {
    const int first = node_leader(node);
    const int full = ranks_per_node * gpus_per_rank;
    return first + full <= total_gpus() ? full : total_gpus() - first;
  }

  /// Flatten (rank, gpu) to a global GPU index in [0, p).
  int global_gpu(GpuCoord c) const noexcept { return c.rank * gpus_per_rank + c.gpu; }
  GpuCoord coord_of(int global) const noexcept {
    return GpuCoord{global / gpus_per_rank, global % gpus_per_rank};
  }

  /// Paper notation, e.g. "16x2x2" (nodes x ranks/node x gpus/rank).
  std::string to_string() const;

  /// Parse "AxBxC" notation.
  static ClusterSpec parse(const std::string& text);

  /// Vertex ownership (Algorithm 1 preliminaries):
  ///   P(v) = v mod prank,   G(v) = (v / prank) mod pgpu.
  int owner_rank(std::uint64_t v) const noexcept {
    return static_cast<int>(v % static_cast<std::uint64_t>(num_ranks));
  }
  int owner_gpu(std::uint64_t v) const noexcept {
    return static_cast<int>((v / static_cast<std::uint64_t>(num_ranks)) %
                            static_cast<std::uint64_t>(gpus_per_rank));
  }
  int owner_global_gpu(std::uint64_t v) const noexcept {
    return owner_rank(v) * gpus_per_rank + owner_gpu(v);
  }
  /// Local index of a normal vertex on its owner (bounded by n/p).
  std::uint64_t local_index(std::uint64_t v) const noexcept {
    return v / static_cast<std::uint64_t>(total_gpus());
  }
  /// Inverse of (owner, local_index).
  std::uint64_t global_vertex(int rank, int gpu, std::uint64_t local) const noexcept {
    return local * static_cast<std::uint64_t>(total_gpus()) +
           static_cast<std::uint64_t>(gpu) * static_cast<std::uint64_t>(num_ranks) +
           static_cast<std::uint64_t>(rank);
  }
};

/// Division-free vertex routing (the BFS result gather; nn loops route
/// through their ghost table instead): `split(v)` equals
/// {owner_global_gpu(v), local_index(v)} (the ClusterSpec formulas stay the
/// reference) for every 64-bit v, at the cost of one 128-bit multiply-high
/// instead of four 64-bit divisions.  The quotient q = v / p uses the
/// round-up reciprocal with an add step (Granlund-Montgomery, "Division by
/// invariant integers using multiplication", Fig. 4.1), exact over the
/// whole 64-bit range; the owner depends only on v - q*p (P(v) and G(v)
/// are both functions of v mod p), so it comes from a p-entry table.
/// Cheap to build (p entries); build one per kernel.
class VertexRouter {
 public:
  struct Split {
    int owner;            // owner global GPU
    std::uint64_t local;  // owner-local index
  };

  /// Throws std::invalid_argument for a spec without GPUs.
  explicit VertexRouter(const ClusterSpec& spec);

  Split split(std::uint64_t v) const noexcept {
    const auto t = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(magic_) * v) >> 64);
    const std::uint64_t q = (t + ((v - t) >> shift1_)) >> shift2_;
    return {owner_[static_cast<std::size_t>(v - q * p_)], q};
  }

 private:
  std::uint64_t p_ = 1;
  std::uint64_t magic_ = 1;
  int shift1_ = 0, shift2_ = 0;
  std::vector<int> owner_;  // owner global GPU by v mod p
};

/// A set of simulated GPUs matching a ClusterSpec.  Owns the Device objects;
/// `run` executes one callable per GPU, each on its own OS thread, which is
/// how every distributed phase in the library runs.
class Cluster {
 public:
  Cluster(ClusterSpec spec, const DeviceMemoryConfig& mem = {});

  const ClusterSpec& spec() const noexcept { return spec_; }
  Device& device(int global_gpu) { return *devices_.at(static_cast<std::size_t>(global_gpu)); }
  const Device& device(int global_gpu) const {
    return *devices_.at(static_cast<std::size_t>(global_gpu));
  }
  int total_gpus() const noexcept { return spec_.total_gpus(); }

  /// Run `body(coord, device)` once per GPU, concurrently (one thread per
  /// GPU).  Exceptions thrown by any body are collected and the first is
  /// rethrown after all threads join.
  void run(const std::function<void(GpuCoord, Device&)>& body);

 private:
  ClusterSpec spec_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace dsbfs::sim
