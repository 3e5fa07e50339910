#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/exchange.hpp"
#include "comm/mask_reduce.hpp"
#include "comm/transport.hpp"
#include "sim/cluster.hpp"
#include "sim/perf_model.hpp"

/// Shared communication context for distributed algorithms.
///
/// Every algorithm on the cluster needs the same bundle: a Transport, the
/// two reducers, the normal exchanges, and the `everyone` participant list
/// for whole-cluster collectives.  CommContext owns all of them for the
/// duration of one algorithm run so drivers stop hand-rolling the bundle,
/// and TagBlocks centralizes the tag arithmetic that used to be scattered
/// as `kTagControl + iteration * kTagBlock` / `kTagUser + (depth + 2) *
/// kTagBlock` expressions across the drivers.
namespace dsbfs::engine {

/// Allocator for disjoint tag blocks (see comm::Tag): iteration `i` of the
/// engine loop owns tag block `i`; post-loop phases allocate blocks past the
/// loop.  Algorithms running several value reductions per iteration keep
/// them disjoint with the reducers' own `channel` parameter
/// (comm::kReduceChannelStride) -- the spacing lives with the reducers' tag
/// computation, not here.
struct TagBlocks {
  /// Tag of the engine's per-iteration termination allreduce.
  static constexpr int control(int iteration) noexcept {
    return comm::kTagControl + iteration * comm::kTagBlock;
  }

  /// User tag `offset` inside `block`.  Offsets must stay below the block
  /// size so neighbouring blocks cannot overlap.
  static constexpr int user(int block, int offset = 0) noexcept {
    assert(offset >= 0 && offset < comm::kTagBlock - comm::kTagUser);
    return comm::kTagUser + block * comm::kTagBlock + offset;
  }

  /// A block index disjoint from every iteration's block after a loop of
  /// `iterations` iterations; distinct `phase` values get distinct blocks.
  static constexpr int after_loop(int iterations, int phase = 0) noexcept {
    return iterations + 2 + phase;
  }
};

/// Exchange-hook helper: keep this round's `fresh` records in `received`
/// and hand the previous `received` buffer, which the previsit has already
/// consumed and cleared, back as the loopback bin `bins[me_global]`.  Both
/// exchange paths move the loopback bin into the records they return, so
/// without the hand-back every round's loopback bin starts with no
/// capacity; with it the two buffers alternate and neither reallocates in
/// steady state.
template <class Record>
void adopt_received(std::vector<std::vector<Record>>& bins, int me_global,
                    std::vector<Record>& received,
                    std::vector<Record>&& fresh) {
  std::vector<Record>& loopback = bins[static_cast<std::size_t>(me_global)];
  loopback = std::move(received);
  loopback.clear();
  received = std::move(fresh);
}

class CommContext {
 public:
  explicit CommContext(const sim::ClusterSpec& spec);

  CommContext(const CommContext&) = delete;
  CommContext& operator=(const CommContext&) = delete;

  const sim::ClusterSpec& spec() const noexcept { return spec_; }
  comm::Transport& transport() noexcept { return transport_; }
  comm::MaskReducer& mask_reducer() noexcept { return mask_reducer_; }
  comm::ValueReducer& value_reducer() noexcept { return value_reducer_; }

  /// All global GPU indices, the participant list of whole-cluster
  /// collectives (`me_index` == global GPU index).
  std::span<const int> everyone() const noexcept { return everyone_; }

  /// The engine's termination allreduce for iteration `iteration`.
  /// Collective: every GPU must call once per iteration.
  std::uint64_t control_allreduce(int gpu, std::uint64_t value, int iteration);

  /// Whole-cluster sum allreduce on an explicit tag (see TagBlocks::user).
  std::uint64_t allreduce_sum(int gpu, std::uint64_t value, int tag);

  /// Whole-cluster element-wise min allreduce on an explicit tag.
  void allreduce_min_words(int gpu, std::span<std::uint64_t> words, int tag);

  /// Whole-cluster element-wise bitwise-OR allreduce on an explicit tag
  /// (e.g. the serving scheduler's one-word lane-drain agreement).
  void allreduce_or_words(int gpu, std::span<std::uint64_t> words, int tag);

  /// Shared exchange-hook bodies: run the id exchange (BFS) or the update
  /// exchange (the value algorithms, with their coalesce/codec/bias
  /// choice) and record the exchange counters into the iteration row.
  /// Return the received records; `bins` are consumed.  `options` define
  /// the wire format and must be identical on every GPU in a round.
  std::vector<LocalId> exchange_ids(sim::GpuCoord me,
                                    std::vector<std::vector<LocalId>>& bins,
                                    int iteration,
                                    const comm::ExchangeOptions& options,
                                    sim::GpuIterationCounters& iter);
  std::vector<comm::VertexUpdate> exchange_value_updates(
      sim::GpuCoord me, std::vector<std::vector<comm::VertexUpdate>>& bins,
      int iteration, const comm::UpdateExchangeOptions& options,
      sim::GpuIterationCounters& iter);

 private:
  sim::ClusterSpec spec_;
  comm::Transport transport_;
  comm::MaskReducer mask_reducer_;
  comm::ValueReducer value_reducer_;
  std::vector<int> everyone_;
};

}  // namespace dsbfs::engine
