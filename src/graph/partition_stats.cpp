#include "graph/partition_stats.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace dsbfs::graph {

PartitionStatsSweeper::PartitionStatsSweeper(const EdgeList& g)
    : num_vertices_(g.num_vertices), num_edges_(g.size()) {
  const std::vector<std::uint32_t> degrees = out_degrees(g);
  const std::uint32_t max_degree =
      degrees.empty() ? 0 : *std::max_element(degrees.begin(), degrees.end());
  const std::size_t bins = static_cast<std::size_t>(max_degree) + 1;

  // One contiguous edge chunk per worker, each filling its own min- and
  // max-endpoint-degree histograms.
  const std::size_t m = g.size();
  const std::size_t workers = std::max<std::size_t>(1, util::parallel_worker_count());
  const std::size_t chunk = (m + workers - 1) / workers;
  const std::size_t chunks = m == 0 ? 0 : (m + chunk - 1) / chunk;
  std::vector<std::vector<std::uint64_t>> min_hist(chunks);
  std::vector<std::vector<std::uint64_t>> max_hist(chunks);
  util::parallel_tasks(chunks, [&](std::size_t c) {
    std::vector<std::uint64_t>& lo = min_hist[c];
    std::vector<std::uint64_t>& hi = max_hist[c];
    lo.assign(bins, 0);
    hi.assign(bins, 0);
    const std::size_t end = std::min(m, (c + 1) * chunk);
    for (std::size_t i = c * chunk; i < end; ++i) {
      const std::uint32_t du = degrees[g.src[i]];
      const std::uint32_t dv = degrees[g.dst[i]];
      ++lo[std::min(du, dv)];
      ++hi[std::max(du, dv)];
    }
  });
  std::vector<std::uint64_t> vertex_hist(bins, 0);
  for (const std::uint32_t d : degrees) ++vertex_hist[d];

  // Entry k of a suffix count sums bins > k; entry k of a prefix count sums
  // bins <= k.
  delegates_above_.assign(bins, 0);
  dd_above_.assign(bins, 0);
  nn_at_most_.assign(bins, 0);
  for (std::size_t k = bins - 1; k-- > 0;) {
    std::uint64_t dd = 0;
    for (const auto& h : min_hist) dd += h[k + 1];
    delegates_above_[k] = delegates_above_[k + 1] + vertex_hist[k + 1];
    dd_above_[k] = dd_above_[k + 1] + dd;
  }
  std::uint64_t nn = 0;
  for (std::size_t k = 0; k < bins; ++k) {
    for (const auto& h : max_hist) nn += h[k];
    nn_at_most_[k] = nn;
  }
}

PartitionStats PartitionStatsSweeper::at(std::uint32_t threshold) const {
  const std::size_t k =
      std::min<std::size_t>(threshold, nn_at_most_.size() - 1);
  PartitionStats s;
  s.threshold = threshold;
  s.num_vertices = num_vertices_;
  s.num_edges = num_edges_;
  s.delegates = delegates_above_[k];   // degree > TH
  s.dd_edges = dd_above_[k];           // both endpoints delegate
  s.nn_edges = nn_at_most_[k];         // both endpoints normal
  s.dn_nd_edges = s.num_edges - s.dd_edges - s.nn_edges;
  return s;
}

std::uint32_t suggest_threshold(const PartitionStatsSweeper& sweeper,
                                int total_gpus, const ThresholdPolicy& policy) {
  const double n = static_cast<double>(sweeper.num_vertices());
  const double delegate_cap =
      std::min(policy.max_delegate_factor * n / static_cast<double>(total_gpus),
               policy.max_delegate_fraction * n);

  // Raising TH only demotes delegates (and grows nn), so the smallest
  // ladder TH meeting the delegate cap also minimizes the nn fraction among
  // all compliant choices -- exactly the paper's tuning direction (Fig. 7:
  // the suggested TH grows ~sqrt(2) per scale along the weak-scaling curve,
  // because the cap tightens as p grows with the scale).
  std::uint32_t prev = 0;
  for (double x = 4.0; x <= 1 << 24; x *= 1.41421356237) {
    const std::uint32_t th = static_cast<std::uint32_t>(x);
    if (th == prev) continue;
    prev = th;
    const PartitionStats s = sweeper.at(th);
    if (static_cast<double>(s.delegates) <= delegate_cap) {
      return th;
    }
  }
  return 64;
}

}  // namespace dsbfs::graph
