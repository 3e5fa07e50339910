#include "comm/mask_reduce.hpp"

#include <bit>
#include <cassert>
#include <functional>

#include "comm/collectives.hpp"
#include "util/lane_value_slab.hpp"

namespace dsbfs::comm {

namespace {

/// Base tag of one reduction: channel `c` stacks kReduceChannelStride
/// virtual iterations past channel `c-1`, so concurrent reductions within
/// an iteration can never alias each other or any realistic iteration.
int reduce_tag(int iteration, int channel) {
  assert(iteration >= 0 && iteration < kReduceChannelStride);
  assert(channel >= 0 && channel < kMaxReduceChannels);
  return kTagMaskLocal +
         (iteration + channel * kReduceChannelStride) * kTagBlock;
}

void combine_words(ValueReducer::Op op, std::span<std::uint64_t> acc,
                   std::span<const std::uint64_t> in, int lane_value_bits) {
  switch (op) {
    case ValueReducer::Op::kMin:
      for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i] = std::min(acc[i], in[i]);
      }
      break;
    case ValueReducer::Op::kSum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
      break;
    case ValueReducer::Op::kSumDouble:
      for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i] = std::bit_cast<std::uint64_t>(std::bit_cast<double>(acc[i]) +
                                              std::bit_cast<double>(in[i]));
      }
      break;
    case ValueReducer::Op::kLaneMin:
      for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i] = util::LaneValueSlab::lane_min_word(acc[i], in[i],
                                                    lane_value_bits);
      }
      break;
    case ValueReducer::Op::kOr:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] |= in[i];
      break;
  }
}

}  // namespace

ValueReducer::ValueReducer(Transport& transport, sim::ClusterSpec spec)
    : transport_(transport), spec_(spec) {
  rank_leaders_.reserve(static_cast<std::size_t>(spec_.num_ranks));
  for (int r = 0; r < spec_.num_ranks; ++r) {
    rank_leaders_.push_back(spec_.global_gpu(sim::GpuCoord{r, 0}));
  }
}

void ValueReducer::reduce(sim::GpuCoord me, std::span<std::uint64_t> values,
                          Op op, int iteration, int channel,
                          int lane_value_bits) {
  // kLaneMin at full width *is* kMin; normalizing keeps W = 1 lane-valued
  // runs on the scalar reducer's exact wire pattern.
  if (op == Op::kLaneMin && lane_value_bits == 64) op = Op::kMin;
  const int me_global = spec_.global_gpu(me);
  const int leader = spec_.global_gpu(sim::GpuCoord{me.rank, 0});
  const int tag = reduce_tag(iteration, channel);

  if (me.gpu != 0) {
    transport_.send(me_global, leader, tag,
                    std::vector<std::uint64_t>(values.begin(), values.end()));
    const auto reduced = transport_.recv(me_global, leader, tag + 1);
    std::copy(reduced.begin(), reduced.end(), values.begin());
    return;
  }

  for (int lg = 1; lg < spec_.gpus_per_rank; ++lg) {
    const int peer = spec_.global_gpu(sim::GpuCoord{me.rank, lg});
    const auto words = transport_.recv(me_global, peer, tag);
    combine_words(op, values, words, lane_value_bits);
  }

  if (spec_.num_ranks > 1) {
    // Tree allreduce among leaders with the requested combiner; the generic
    // binomial machinery lives in collectives.cpp, reused via lambdas.
    std::vector<std::uint64_t> data(values.begin(), values.end());
    switch (op) {
      case Op::kMin:
        allreduce_min_words(transport_, rank_leaders_, me.rank, data, tag + 2);
        break;
      case Op::kOr:
        allreduce_or_words(transport_, rank_leaders_, me.rank, data, tag + 2);
        break;
      case Op::kSum:
      case Op::kSumDouble:
      case Op::kLaneMin: {
        // Gather-to-root + combine + broadcast (exact tree shape matters
        // less here; byte volume matches the two-phase model).
        std::vector<std::uint64_t> gathered =
            gather_words(transport_, rank_leaders_, me.rank, data, tag + 2);
        if (me.rank == 0) {
          for (int r = 1; r < spec_.num_ranks; ++r) {
            combine_words(op, data,
                          std::span<const std::uint64_t>(
                              gathered.data() +
                                  static_cast<std::ptrdiff_t>(r) *
                                      static_cast<std::ptrdiff_t>(data.size()),
                              data.size()),
                          lane_value_bits);
          }
        }
        broadcast_words(transport_, rank_leaders_, me.rank, data, tag + 3);
        break;
      }
    }
    std::copy(data.begin(), data.end(), values.begin());
  }

  std::vector<std::uint64_t> result(values.begin(), values.end());
  for (int lg = 1; lg < spec_.gpus_per_rank; ++lg) {
    const int peer = spec_.global_gpu(sim::GpuCoord{me.rank, lg});
    transport_.send(me_global, peer, tag + 1, result);
  }
}

}  // namespace dsbfs::comm
