#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "util/types.hpp"

/// Bucketed-frontier substrate for delta-stepping traversals (Meyer &
/// Sanders' delta-stepping SSSP mapped onto the degree-separated engine --
/// see core/batch_sssp.hpp for the distributed engine).
///
/// Two pieces, both per GPU:
///
///   * **BucketState** -- a priority structure over `frontier`-style vertex
///     queues: bucket `i` holds vertices whose tentative distance lies in
///     `[i*delta, (i+1)*delta)`.  Insertions are *lazy* (an improved vertex
///     is simply appended to its new bucket; the entry it left behind goes
///     stale), and validity is re-derived from the caller's distance array
///     when a bucket is opened or scanned, exactly like the lazy-decrease-key
///     bucket queues of serial delta-stepping implementations.
///   * **EdgePartition** -- a per-row light/heavy split of one CSR subgraph
///     against the configurable delta: light edges (weight <= delta) are
///     relaxed repeatedly while a bucket drains, heavy edges (weight >
///     delta) exactly once per settled vertex.  The split is precomputed so
///     each relax kernel touches only the edges its phase needs -- the
///     device-model replay then charges light rounds the light edge mass
///     only, which is the whole point of the light/heavy distinction.
namespace dsbfs::core {

/// Sentinel bucket index: "no bucket" / "no non-empty bucket left".  Also
/// the bucket of an infinite (unreached) distance.
inline constexpr std::uint64_t kNoBucket = static_cast<std::uint64_t>(-1);

class BucketState {
 public:
  BucketState() = default;
  /// `delta` is the bucket width, >= 1.  `delta == kInfiniteDistance`
  /// degenerates to a single bucket 0 holding every reached vertex (and
  /// every edge is light), which is exactly round-based Bellman-Ford.
  explicit BucketState(std::uint64_t delta);

  std::uint64_t delta() const noexcept { return delta_; }

  /// Bucket index of a tentative distance (kNoBucket for kInfiniteDistance).
  std::uint64_t bucket_of(std::uint64_t dist) const noexcept {
    return dist == kInfiniteDistance ? kNoBucket : dist / delta_;
  }

  /// Queue `v` (tentative distance `dist`) into its bucket.  Lazy: any entry
  /// a previous insert left in another bucket stays behind and is dropped
  /// when that bucket is opened or scanned.
  void insert(LocalId v, std::uint64_t dist);

  /// Remove bucket `b` and return its valid entries, deduplicated and
  /// sorted.  An entry `id` is valid when `dist_of(id)` still maps to `b`.
  /// The distance comes from a callable because queue ids need not be plain
  /// array indices: the delta-stepping engine keys buckets by (vertex, lane)
  /// *slot* and reads tentative distances out of packed lane words.
  template <typename DistFn>
  std::vector<LocalId> take_with(std::uint64_t b, DistFn&& dist_of) {
    std::vector<LocalId> out;
    const auto it = buckets_.find(b);
    if (it == buckets_.end()) return out;
    entries_ -= it->second.size();
    out = std::move(it->second);
    buckets_.erase(it);
    std::erase_if(out,
                  [&](LocalId v) { return bucket_of(dist_of(v)) != b; });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Smallest bucket holding at least one valid entry, or kNoBucket.
  /// Prunes stale entries and empty buckets encountered on the way, so
  /// repeated calls stay cheap and entry_count() tightens toward the truth.
  template <typename DistFn>
  std::uint64_t min_bucket_with(DistFn&& dist_of) {
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      std::vector<LocalId>& bucket = it->second;
      const std::uint64_t b = it->first;
      const std::size_t before = bucket.size();
      std::erase_if(bucket,
                    [&](LocalId v) { return bucket_of(dist_of(v)) != b; });
      entries_ -= before - bucket.size();
      if (bucket.empty()) {
        it = buckets_.erase(it);
      } else {
        return b;
      }
    }
    return kNoBucket;
  }

  /// Entries currently queued, *including* stale ones (lazy inserts are
  /// never eagerly deleted).  Zero means definitely empty; nonzero means
  /// "possibly has work", which is the only property the engine's
  /// termination word needs.
  std::uint64_t entry_count() const noexcept { return entries_; }

  /// Total insertions over the structure's lifetime (bucket-traffic metric).
  std::uint64_t inserted_total() const noexcept { return inserted_; }

 private:
  std::uint64_t delta_ = 1;
  std::uint64_t entries_ = 0;
  std::uint64_t inserted_ = 0;
  // Ordered by bucket index; sparse (bucket indices reach max-dist / delta).
  std::map<std::uint64_t, std::vector<LocalId>> buckets_;
};

/// Per-row light/heavy edge-index partition of one CSR subgraph.  Row `r`'s
/// light edges are `idx()[csr.row_begin(r) .. light_end(r))` and its heavy
/// edges `idx()[light_end(r) .. csr.row_end(r))`; each element is an edge
/// index into the *original* CSR (usable with `col(e)` and the stored
/// weight arrays).  Rebuilt per run: the split depends on the run's delta.
class EdgePartition {
 public:
  EdgePartition() = default;

  /// Partition `csr`'s edges against `delta`.  `weight_of(row, e)` returns
  /// the weight of edge `e` (an index into the row slice of `row`), so the
  /// caller decides between stored arrays and the hashed fallback.
  template <typename CsrT, typename WeightFn>
  static EdgePartition build(const CsrT& csr, std::uint64_t delta,
                             WeightFn&& weight_of) {
    EdgePartition p;
    const std::size_t rows = csr.num_rows();
    p.offsets_.resize(rows + 1);
    p.light_end_.resize(rows);
    p.idx_.resize(csr.num_edges());
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint64_t begin = csr.row_begin(r);
      const std::uint64_t end = csr.row_end(r);
      p.offsets_[r] = begin;
      std::uint64_t light = begin;   // next light slot, from the front
      std::uint64_t heavy = end;     // next heavy slot, from the back
      for (std::uint64_t e = begin; e < end; ++e) {
        if (weight_of(r, e) <= delta) {
          p.idx_[light++] = e;
        } else {
          p.idx_[--heavy] = e;
        }
      }
      p.light_end_[r] = light;
      p.light_edges_ += light - begin;
      p.heavy_edges_ += end - light;
    }
    p.offsets_[rows] = csr.num_edges();
    return p;
  }

  std::span<const EdgeId> light(std::size_t row) const noexcept {
    return {idx_.data() + offsets_[row],
            idx_.data() + light_end_[row]};
  }
  std::span<const EdgeId> heavy(std::size_t row) const noexcept {
    return {idx_.data() + light_end_[row],
            idx_.data() + offsets_[row + 1]};
  }

  std::uint64_t light_edges() const noexcept { return light_edges_; }
  std::uint64_t heavy_edges() const noexcept { return heavy_edges_; }

  /// Device footprint of the partition (index + offset arrays).
  std::uint64_t bytes() const noexcept {
    return (idx_.size() + offsets_.size() + light_end_.size()) * 8;
  }

 private:
  std::vector<EdgeId> idx_;        // edge indices, light-first per row
  std::vector<EdgeId> offsets_;    // row slices (copied from the CSR)
  std::vector<EdgeId> light_end_;  // per row: end of the light slice
  std::uint64_t light_edges_ = 0;
  std::uint64_t heavy_edges_ = 0;
};

}  // namespace dsbfs::core
