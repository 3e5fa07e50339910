#include "sim/cluster.hpp"

#include <bit>
#include <cstdio>
#include <exception>
#include <thread>

namespace dsbfs::sim {

std::string ClusterSpec::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%dx%dx%d", num_nodes(), ranks_per_node,
                gpus_per_rank);
  return buf;
}

ClusterSpec ClusterSpec::parse(const std::string& text) {
  int nodes = 0, rpn = 0, gpr = 0;
  if (std::sscanf(text.c_str(), "%dx%dx%d", &nodes, &rpn, &gpr) != 3 ||
      nodes <= 0 || rpn <= 0 || gpr <= 0) {
    throw std::invalid_argument("cluster spec must be NxRxG, got: " + text);
  }
  ClusterSpec spec;
  spec.num_ranks = nodes * rpn;
  spec.gpus_per_rank = gpr;
  spec.ranks_per_node = rpn;
  return spec;
}

VertexRouter::VertexRouter(const ClusterSpec& spec)
    : p_(static_cast<std::uint64_t>(spec.total_gpus())) {
  if (spec.num_ranks <= 0 || spec.gpus_per_rank <= 0) {
    throw std::invalid_argument("vertex router needs at least one GPU");
  }
  // l = ceil(log2 p); magic = floor(2^64 * (2^l - p) / p) + 1 fits 64 bits
  // for every p >= 1 (it is 1 for powers of two, where the add step alone
  // shifts v right by l).
  const int l = std::bit_width(p_ - 1);
  magic_ = static_cast<std::uint64_t>(
               ((static_cast<unsigned __int128>((1ULL << l) - p_)) << 64) /
               p_) +
           1;
  shift1_ = l < 1 ? l : 1;
  shift2_ = l > 1 ? l - 1 : 0;
  owner_.resize(static_cast<std::size_t>(p_));
  for (std::uint64_t r = 0; r < p_; ++r) {
    owner_[static_cast<std::size_t>(r)] = spec.owner_global_gpu(r);
  }
}

Cluster::Cluster(ClusterSpec spec, const DeviceMemoryConfig& mem) : spec_(spec) {
  if (spec_.num_ranks <= 0 || spec_.gpus_per_rank <= 0) {
    throw std::invalid_argument("cluster must have at least one rank and GPU");
  }
  devices_.reserve(static_cast<std::size_t>(spec_.total_gpus()));
  for (int g = 0; g < spec_.total_gpus(); ++g) {
    devices_.push_back(std::make_unique<Device>(g, mem));
  }
}

void Cluster::run(const std::function<void(GpuCoord, Device&)>& body) {
  const int p = spec_.total_gpus();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([this, g, &body, &errors] {
      try {
        body(spec_.coord_of(g), *devices_[static_cast<std::size_t>(g)]);
      } catch (...) {
        errors[static_cast<std::size_t>(g)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace dsbfs::sim
