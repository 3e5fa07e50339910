#include "core/bucket.hpp"

#include <stdexcept>

namespace dsbfs::core {

BucketState::BucketState(std::uint64_t delta) : delta_(delta) {
  if (delta == 0) {
    throw std::invalid_argument("bucket delta must be at least 1");
  }
}

void BucketState::insert(LocalId v, std::uint64_t dist) {
  buckets_[bucket_of(dist)].push_back(v);
  ++entries_;
  ++inserted_;
}

}  // namespace dsbfs::core
